#include "ehw/pe/compiled.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>

#include "ehw/pe/simd.hpp"

namespace ehw::pe {
namespace {

/// Applies one library function across a row span. The per-op dispatch is
/// hoisted out of the pixel loop, so every case body is a tight byte loop
/// the compiler auto-vectorizes. Each form reproduces apply_op() exactly.
EHW_KERNEL_INLINE void apply_op_row(PeOp op, const Pixel* w, const Pixel* n,
                                    Pixel* out, std::size_t len) noexcept {
  switch (op) {
    case PeOp::kConst255:
      std::memset(out, 255, len);
      break;
    case PeOp::kIdentityW:
      std::memcpy(out, w, len);
      break;
    case PeOp::kIdentityN:
      std::memcpy(out, n, len);
      break;
    case PeOp::kInvertW:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<Pixel>(255 - w[i]);
      }
      break;
    case PeOp::kMax:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = w[i] > n[i] ? w[i] : n[i];
      }
      break;
    case PeOp::kMin:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = w[i] < n[i] ? w[i] : n[i];
      }
      break;
    case PeOp::kAddSat:
      for (std::size_t i = 0; i < len; ++i) {
        const int t = w[i] + n[i];
        out[i] = static_cast<Pixel>(t > 255 ? 255 : t);
      }
      break;
    case PeOp::kSubSat:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<Pixel>(w[i] > n[i] ? w[i] - n[i] : 0);
      }
      break;
    case PeOp::kAverage:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<Pixel>((w[i] + n[i] + 1) >> 1);
      }
      break;
    case PeOp::kShiftR1:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<Pixel>(w[i] >> 1);
      }
      break;
    case PeOp::kShiftR2:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<Pixel>(w[i] >> 2);
      }
      break;
    case PeOp::kAddMod:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<Pixel>((w[i] + n[i]) & 0xFF);
      }
      break;
    case PeOp::kAbsDiff:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<Pixel>(w[i] > n[i] ? w[i] - n[i] : n[i] - w[i]);
      }
      break;
    case PeOp::kThreshold:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = w[i] > n[i] ? Pixel{255} : Pixel{0};
      }
      break;
    case PeOp::kOr:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<Pixel>(w[i] | n[i]);
      }
      break;
    case PeOp::kAnd:
      for (std::size_t i = 0; i < len; ++i) {
        out[i] = static_cast<Pixel>(w[i] & n[i]);
      }
      break;
  }
}

}  // namespace

CompiledArray::CompiledArray(const SystolicArray& array) {
  const auto& shape = array.shape();
  const std::size_t rows = shape.rows;
  const std::size_t cols = shape.cols;
  buffer_size_ = kWindowTaps + rows * cols;
  EHW_REQUIRE(buffer_size_ <= kEvalBufferSlots,
              "mesh too large for the scalar evaluator's value buffer");

  const auto cell_slot = [&](std::size_t r, std::size_t c) {
    return static_cast<std::uint16_t>(kWindowTaps + r * cols + c);
  };

  // Rows strictly below the output row are dead: a cell's value flows only
  // east (same row) and south (greater row), so nothing from row > out
  // can ever come back up to the output row.
  const std::size_t active_rows = array.output_row() + std::size_t{1};
  active_cells_ = active_rows * cols;

  // Compile-time folding state. A slot is either computed by an emitted
  // step, aliased to an earlier slot (identity cells), or a known constant.
  // The mesh is walked in dependency order, so inputs resolve fully in one
  // hop: aliases always point at canonical (non-aliased) slots.
  std::vector<std::uint16_t> alias(buffer_size_);
  std::iota(alias.begin(), alias.end(), std::uint16_t{0});
  std::vector<std::int16_t> cval(buffer_size_, -1);  // -1 = not constant

  steps_.reserve(active_cells_);
  for (std::size_t r = 0; r < active_rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const CellConfig& cc = array.cell(r, c);
      const std::uint16_t w =
          alias[c == 0 ? array.input_select(r) : cell_slot(r, c - 1)];
      const std::uint16_t n =
          alias[r == 0
                    ? static_cast<std::uint16_t>(array.input_select(rows + c))
                    : cell_slot(r - 1, c)];
      const std::uint16_t out = cell_slot(r, c);
      if (cc.defective) {
        // Never folded: the output depends on position and input data.
        steps_.push_back({0, true, w, n, out, cc.defect_seed});
        continue;
      }
      const std::int16_t cw = cval[w];
      const std::int16_t cn = cval[n];
      if (cc.op == PeOp::kIdentityW) {
        alias[out] = w;
        cval[out] = cw;
        continue;
      }
      if (cc.op == PeOp::kIdentityN) {
        alias[out] = n;
        cval[out] = cn;
        continue;
      }
      if (op_is_constant(cc.op) ||
          (cw >= 0 && (cn >= 0 || op_uses_only_w(cc.op)))) {
        cval[out] = apply_op(cc.op, static_cast<Pixel>(cw >= 0 ? cw : 0),
                             static_cast<Pixel>(cn >= 0 ? cn : 0));
        continue;
      }
      steps_.push_back(
          {static_cast<std::uint8_t>(cc.op), false, w, n, out, 0});
    }
  }

  const std::uint16_t out_slot = cell_slot(array.output_row(), cols - 1);
  output_index_ = alias[out_slot];
  output_const_ = cval[out_slot];

  // Materialize only the folded constants a surviving step still reads
  // (a constant output is handled via output_const_ directly).
  std::vector<bool> needed(buffer_size_, false);
  for (const Step& s : steps_) {
    if (cval[s.w_index] >= 0) needed[s.w_index] = true;
    if (cval[s.n_index] >= 0) needed[s.n_index] = true;
  }
  for (std::size_t slot = 0; slot < buffer_size_; ++slot) {
    if (needed[slot]) {
      consts_.push_back({static_cast<std::uint16_t>(slot),
                         static_cast<Pixel>(cval[slot])});
    }
  }
}

Pixel CompiledArray::evaluate(const Pixel window[kWindowTaps], std::size_t x,
                              std::size_t y) const noexcept {
  // Value buffer on the stack; 16x16 arrays (265 slots) fit comfortably.
  Pixel buf[kEvalBufferSlots];
  for (std::size_t i = 0; i < kWindowTaps; ++i) buf[i] = window[i];
  for (const SlotConst& sc : consts_) buf[sc.slot] = sc.value;
  for (const Step& s : steps_) {
    const Pixel w = buf[s.w_index];
    const Pixel n = buf[s.n_index];
    buf[s.out_index] = s.defective
                           ? defective_output(s.defect_seed, x, y, w, n)
                           : apply_op(static_cast<PeOp>(s.op), w, n);
  }
  return output_const_ >= 0 ? static_cast<Pixel>(output_const_)
                            : buf[output_index_];
}

namespace detail {

/// The fused kernel's one body. Each KernelVariant is this, inlined into
/// a function compiled for the variant's instruction set.
struct RowKernel {
  EHW_KERNEL_INLINE static Fitness run(const CompiledArray& program,
                                       const img::Image& src, img::Image* dst,
                                       const img::Image* reference,
                                       std::size_t y0, std::size_t y1) {
    const std::size_t w = src.width();
    const std::size_t h = src.height();
    Fitness total = 0;

    // Padded line ring: the three clamp-replicated source rows around y,
    // each with one duplicated pixel on either side, so EVERY pixel of
    // the frame — borders and degenerate 1-to-2-pixel-wide frames
    // included — is an interior pixel of the padded rows and flows
    // through the vector kernels (the software analogue of the
    // platform's 3-line FIFOs, which replicate at the frame edges the
    // same way). Source row r lives in ring slot r % 3; the rows needed
    // for consecutive y overlap 2-of-3, so sliding down the frame copies
    // one new row per step.
    const std::size_t padded =
        (w + 2 + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1);
    std::vector<Pixel, AlignedAllocator<Pixel, kCacheLineBytes>> ring(
        3 * padded);
    std::size_t loaded[3] = {h, h, h};  // h = "nothing loaded"
    const auto clamp_row = [h](std::size_t y, std::ptrdiff_t dy) {
      const auto r = static_cast<std::ptrdiff_t>(y) + dy;
      if (r < 0) return std::size_t{0};
      if (static_cast<std::size_t>(r) >= h) return h - 1;
      return static_cast<std::size_t>(r);
    };
    const auto load_row = [&](std::size_t r) -> const Pixel* {
      Pixel* p = ring.data() + (r % 3) * padded;
      if (loaded[r % 3] != r) {
        std::memcpy(p + 1, src.row(r), w);
        p[0] = p[1];
        p[w + 1] = p[w];
        loaded[r % 3] = r;
      }
      return p;
    };

    // Fused block workspace: every surviving step runs over one
    // kFuseBlock span before the next block starts, so a step's
    // intermediate row never leaves L1 before its consumers read it —
    // adjacent steps compose in one pass over the row triple instead of
    // materializing a full frame-width row each. Read pointers rp[] cover
    // the whole value buffer: tap slots [0, 9) aim into the padded ring
    // (re-aimed per block), cell slots at their fixed storage blocks.
    const std::size_t cell_slots = program.buffer_size_ - kWindowTaps;
    std::vector<Pixel, AlignedAllocator<Pixel, kCacheLineBytes>> storage(
        cell_slots * kFuseBlock);
    std::vector<const Pixel*> rp(program.buffer_size_, nullptr);
    for (std::size_t s = 0; s < cell_slots; ++s) {
      rp[kWindowTaps + s] = storage.data() + s * kFuseBlock;
    }
    for (const auto& sc : program.consts_) {
      // Tap slots are never constant; see the constructor.
      std::memset(storage.data() + (sc.slot - kWindowTaps) * kFuseBlock,
                  sc.value, kFuseBlock);
    }
    const bool const_output = program.output_const_ >= 0;
    const auto const_value = static_cast<Pixel>(program.output_const_);

    for (std::size_t y = y0; y < y1; ++y) {
      const Pixel* tap_rows[3] = {load_row(clamp_row(y, -1)), load_row(y),
                                  load_row(clamp_row(y, +1))};
      for (std::size_t b0 = 0; b0 < w; b0 += kFuseBlock) {
        const std::size_t len = std::min(kFuseBlock, w - b0);
        for (std::size_t t = 0; t < kWindowTaps; ++t) {
          rp[t] = tap_rows[t / 3] + t % 3 + b0;
        }
        for (const auto& s : program.steps_) {
          Pixel* out =
              storage.data() + (s.out_index - kWindowTaps) * kFuseBlock;
          if (s.defective) {
            defective_row(s.defect_seed, b0, y, rp[s.w_index],
                          rp[s.n_index], out, len);
          } else {
            apply_op_row(static_cast<PeOp>(s.op), rp[s.w_index],
                         rp[s.n_index], out, len);
          }
        }
        if (dst != nullptr) {
          Pixel* drow = dst->row(y) + b0;
          if (const_output) {
            std::memset(drow, const_value, len);
          } else {
            std::memcpy(drow, rp[program.output_index_], len);
          }
        }
        if (reference != nullptr) {
          const Pixel* rrow = reference->row(y) + b0;
          total += const_output
                       ? abs_error_const_block(const_value, rrow, len)
                       : abs_error_block(rp[program.output_index_], rrow, len);
        }
      }
    }
    return total;
  }
};

}  // namespace detail

namespace {

// The variants: one kernel body, each compiled for its instruction set.
// Feature-list targets (not arch= ones, and not target_clones/ifunc)
// are the form GCC and Clang both accept and that ThreadSanitizer
// builds start cleanly with.
Fitness rows_baseline(const CompiledArray& program, const img::Image& src,
                      img::Image* dst, const img::Image* reference,
                      std::size_t y0, std::size_t y1) {
  return detail::RowKernel::run(program, src, dst, reference, y0, y1);
}

#if defined(EHW_KERNEL_DISPATCH)
__attribute__((target("avx2"))) Fitness rows_avx2(
    const CompiledArray& program, const img::Image& src, img::Image* dst,
    const img::Image* reference, std::size_t y0, std::size_t y1) {
  return detail::RowKernel::run(program, src, dst, reference, y0, y1);
}

// Narrowest first; each variant's host also runs every narrower one.
// There is no AVX-512 variant: on a 4-CPU AVX-512 Xeon it ran
// BM_FitnessAgainst 7-14% faster than AVX2, less than the spread between
// AVX2 runs (ROADMAP K).
constexpr detail::KernelVariant kVariants[] = {
    {"baseline", rows_baseline},
    {"avx2", rows_avx2},
};

std::size_t supported_variant_count() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") ? 2 : 1;
}
#else
#if defined(EHW_SIMD_FORCE_SCALAR)
constexpr const char* kOnlyVariant = "scalar";
#elif defined(EHW_NATIVE_ARCH)
constexpr const char* kOnlyVariant = "native";
#else
constexpr const char* kOnlyVariant = "baseline";
#endif
constexpr detail::KernelVariant kVariants[] = {
    {kOnlyVariant, rows_baseline},
};

std::size_t supported_variant_count() noexcept { return 1; }
#endif

}  // namespace

std::span<const detail::KernelVariant> detail::supported_kernels() noexcept {
  static const std::size_t count = supported_variant_count();
  return {kVariants, count};
}

img::Image CompiledArray::filter(const img::Image& src) const {
  img::Image out(src.width(), src.height());
  filter_into(src, out, nullptr);
  return out;
}

void CompiledArray::filter_into(const img::Image& src, img::Image& dst,
                                ThreadPool* pool,
                                const detail::KernelVariant& kernel) const {
  EHW_REQUIRE(src.same_shape(dst), "destination shape mismatch");
  const std::size_t h = src.height();
  if (pool != nullptr && h >= 32) {
    pool->parallel_chunks(0, h, [&](std::size_t lo, std::size_t hi) {
      kernel.rows(*this, src, &dst, nullptr, lo, hi);
    });
  } else {
    kernel.rows(*this, src, &dst, nullptr, 0, h);
  }
}

Fitness CompiledArray::fitness_against(
    const img::Image& src, const img::Image& reference, ThreadPool* pool,
    const detail::KernelVariant& kernel) const {
  EHW_REQUIRE(src.same_shape(reference), "reference shape mismatch");
  const std::size_t h = src.height();
  if (pool != nullptr && h >= 64) {
    // Each chunk accumulates privately; one atomic add per chunk keeps
    // worker cache lines disjoint (no per-row shared partial array).
    std::atomic<Fitness> total{0};
    pool->parallel_chunks(0, h, [&](std::size_t lo, std::size_t hi) {
      total.fetch_add(kernel.rows(*this, src, nullptr, &reference, lo, hi),
                      std::memory_order_relaxed);
    });
    return total.load(std::memory_order_relaxed);
  }
  return kernel.rows(*this, src, nullptr, &reference, 0, h);
}

bool CompiledArray::any_defective_active() const noexcept {
  for (const Step& s : steps_) {
    if (s.defective) return true;
  }
  return false;
}

}  // namespace ehw::pe
