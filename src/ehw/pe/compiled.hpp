#pragma once
// Flattened, allocation-free evaluator for a SystolicArray.
//
// The evolutionary loop evaluates millions of 3x3 windows per run, so the
// mesh is "compiled" once per candidate into a linear program over a value
// buffer:
//   slots [0, 9)            = window taps;
//   slot  9 + r*cols + c    = output of cell (r, c).
// Cells strictly below the selected output row can never reach the output
// (dependencies only point west and north), so compilation drops them —
// the same dead logic the physical array simply doesn't observe.
//
// Compilation additionally folds trivial steps exactly:
//   * identity cells (W / N pass-throughs) become slot aliases,
//   * constant cells — and cells whose live inputs are already known
//     constants — become precomputed slot constants,
// so the emitted program contains only steps that do real work. Folding is
// bit-exact and never touches defective cells (their pseudo-random output
// depends on position and inputs).
//
// Whole-frame evaluation runs a FUSED SIMD kernel, compiled once per
// vector ISA on x86-64 and picked at run time (detail::KernelVariant
// below; pe/simd.hpp lists the variants): the 9 window taps read from a
// padded 3-row line ring whose clamp-replicated edge pixels make every frame
// pixel — borders and 1-pixel-wide frames included — an interior pixel of
// the kernel, and the surviving steps execute block-by-block over
// cache-line-sized spans so adjacent steps compose in L1 instead of
// materializing a frame-width intermediate row each (step fusion).
// Defective cells run through the vectorized defective_row lane kernel.
// Outputs are bit-identical to the scalar evaluator in all cases,
// including defective cells — defects are never folded or fused away.

#include <cstdint>
#include <span>
#include <vector>

#include "ehw/common/thread_pool.hpp"
#include "ehw/img/image.hpp"
#include "ehw/pe/array.hpp"

namespace ehw::pe {

class CompiledArray;

namespace detail {

struct RowKernel;

/// The fused row kernel compiled for one instruction set. Variants differ
/// only in vector width; their results are bit-identical.
struct KernelVariant {
  /// "baseline" or "avx2" where the kernel is picked at run time;
  /// "native", "baseline" or "scalar" in single-variant builds.
  const char* name;
  /// Rows [y0, y1) of `program` over `src`: writes them to `dst` when it
  /// is non-null, and returns the error sum against `reference` when
  /// that is non-null (at least one of the two is).
  Fitness (*rows)(const CompiledArray& program, const img::Image& src,
                  img::Image* dst, const img::Image* reference,
                  std::size_t y0, std::size_t y1);
};

/// The variants this build compiled that the host can run, narrowest
/// first; a single-variant build lists its one.
[[nodiscard]] std::span<const KernelVariant> supported_kernels() noexcept;

/// The variant CompiledArray runs unless told otherwise: the widest one
/// the host supports, picked once per process.
[[nodiscard]] inline const KernelVariant& chosen_kernel() noexcept {
  return supported_kernels().back();
}

}  // namespace detail

class CompiledArray {
 public:
  /// Scalar-path value-buffer capacity: window taps + every cell of the
  /// largest supported mesh. Enforced at construction.
  static constexpr std::size_t kEvalBufferSlots = 512;

  explicit CompiledArray(const SystolicArray& array);

  /// Evaluates one window; (x, y) seed defective-cell randomness only.
  [[nodiscard]] Pixel evaluate(const Pixel window[kWindowTaps], std::size_t x,
                               std::size_t y) const noexcept;

  /// Filters a whole image sequentially.
  [[nodiscard]] img::Image filter(const img::Image& src) const;

  /// Filters into a pre-allocated destination; row chunks are distributed
  /// over `pool` when given (deterministic: disjoint row ranges).
  void filter_into(const img::Image& src, img::Image& dst,
                   ThreadPool* pool = nullptr) const {
    filter_into(src, dst, pool, detail::chosen_kernel());
  }

  /// Aggregated MAE against `reference` of filtering `src`, without
  /// materializing the output image (the fitness-unit fast path).
  [[nodiscard]] Fitness fitness_against(const img::Image& src,
                                        const img::Image& reference,
                                        ThreadPool* pool = nullptr) const {
    return fitness_against(src, reference, pool, detail::chosen_kernel());
  }

  /// The two above through a given kernel variant instead of the chosen
  /// one: the equivalence suites run every supported variant this way.
  void filter_into(const img::Image& src, img::Image& dst, ThreadPool* pool,
                   const detail::KernelVariant& kernel) const;
  [[nodiscard]] Fitness fitness_against(
      const img::Image& src, const img::Image& reference, ThreadPool* pool,
      const detail::KernelVariant& kernel) const;

  /// Cells in rows reachable from the output mux (compile-folded steps
  /// still count: folding is an evaluator optimization, not dead logic).
  [[nodiscard]] std::size_t active_cell_count() const noexcept {
    return active_cells_;
  }
  /// Steps surviving constant/identity folding (evaluator work per pixel).
  [[nodiscard]] std::size_t step_count() const noexcept {
    return steps_.size();
  }
  [[nodiscard]] bool any_defective_active() const noexcept;

 private:
  struct Step {
    std::uint8_t op;         // PeOp, valid when !defective
    bool defective;
    std::uint16_t w_index;   // operand slots in the value buffer
    std::uint16_t n_index;
    std::uint16_t out_index;
    std::uint64_t defect_seed;
  };
  /// A slot whose value folded to a compile-time constant and is still
  /// read by a surviving step.
  struct SlotConst {
    std::uint16_t slot;
    Pixel value;
  };

  friend struct detail::RowKernel;  // the fused kernel's one body

  std::vector<Step> steps_;
  std::vector<SlotConst> consts_;
  std::uint16_t output_index_ = 0;
  std::int16_t output_const_ = -1;  // >= 0: the output folded to a constant
  std::size_t buffer_size_ = 0;
  std::size_t active_cells_ = 0;
};

}  // namespace ehw::pe
