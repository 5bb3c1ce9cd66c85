#pragma once
// SIMD configuration and the portable lane kernels the fused row
// evaluator is built from.
//
// All kernels are written as fixed-width lane loops over plain byte/u64
// arrays — no intrinsics — and are always inlined, so the compiler
// auto-vectorizes each copy for the instruction set of the fused-kernel
// variant it lands in (pe::detail::KernelVariant, pe/compiled.hpp).
// Which variants exist is decided by the build:
//   * x86-64 default     — two variants of one kernel body: baseline
//                          (SSE2) and AVX2. A CPUID check picks the
//                          widest one the host can run, once per
//                          process, so one portable binary runs at the
//                          host's vector width (AVX-512 hosts run AVX2);
//   * EHW_NATIVE_ARCH=ON — the CMake option adds -march=native: one
//                          variant for the build host's widest ISA (the
//                          binary then only runs on hosts like it);
//   * other targets      — one variant for the target's baseline vector
//                          unit (NEON on aarch64);
//   * EHW_SCALAR_KERNELS=ON (defines EHW_SIMD_FORCE_SCALAR) — one
//                          variant: the scalar reference fallback,
//                          straightforward per-pixel loops, no lane
//                          structure.
// Every variant is BIT-IDENTICAL: lanes only change how the exact integer
// arithmetic is scheduled, never its results. The scalar fallback is the
// reference the randomized equivalence suites pin the others against,
// and those suites run every variant the host supports.

#include <cstddef>
#include <cstdint>

#include "ehw/common/aligned.hpp"
#include "ehw/common/types.hpp"
#include "ehw/pe/array.hpp"

/// Lane kernels and the fused kernel's body: inlined into every variant,
/// so each copy is compiled for that variant's instruction set.
#define EHW_KERNEL_INLINE inline __attribute__((always_inline))

#if defined(__x86_64__) && !defined(EHW_SIMD_FORCE_SCALAR) && \
    !defined(EHW_NATIVE_ARCH)
/// Defined when the fused kernel is compiled once per x86-64 vector ISA
/// and picked at run time.
#define EHW_KERNEL_DISPATCH 1
#endif

namespace ehw::pe {

#if defined(EHW_SIMD_FORCE_SCALAR)
/// Scalar reference fallback: no lane blocking.
inline constexpr bool kSimdLanes = false;
inline constexpr std::size_t kFuseBlock = 64;
#elif defined(EHW_NATIVE_ARCH) || defined(__AVX2__)
inline constexpr bool kSimdLanes = true;
inline constexpr std::size_t kFuseBlock = 256;
#else
// 128-bit baseline vector units (SSE2 on x86-64, NEON on aarch64).
inline constexpr bool kSimdLanes = true;
inline constexpr std::size_t kFuseBlock = 128;
#endif

static_assert(kFuseBlock % kCacheLineBytes == 0,
              "fused blocks must be whole cache lines");

/// Sum of |a[i] - b[i]| over at most kFuseBlock bytes (the per-block
/// error reduction of the fitness path), so the 32-bit lane accumulators
/// cannot overflow (255 * kFuseBlock << 2^32).
[[nodiscard]] EHW_KERNEL_INLINE std::uint32_t abs_error_block(
    const Pixel* a, const Pixel* b, std::size_t len) noexcept {
  if constexpr (kSimdLanes) {
    // Fixed-width lanes: 8-bit |a-b| (exact in u8), widened into u32
    // accumulators. GCC/Clang turn this into psadbw/uabal-style code.
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const Pixel d = a[i] > b[i] ? static_cast<Pixel>(a[i] - b[i])
                                  : static_cast<Pixel>(b[i] - a[i]);
      acc += d;
    }
    return acc;
  } else {
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < len; ++i) {
      const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
      acc += static_cast<std::uint32_t>(d < 0 ? -d : d);
    }
    return acc;
  }
}

/// As abs_error_block with a constant left operand (folded-constant
/// output circuits).
[[nodiscard]] EHW_KERNEL_INLINE std::uint32_t abs_error_const_block(
    Pixel c, const Pixel* b, std::size_t len) noexcept {
  std::uint32_t acc = 0;
  for (std::size_t i = 0; i < len; ++i) {
    const Pixel d =
        c > b[i] ? static_cast<Pixel>(c - b[i]) : static_cast<Pixel>(b[i] - c);
    acc += d;
  }
  return acc;
}

/// Defective-cell row kernel: the SplitMix64-derived pseudo-random output
/// of a dummy PE for every pixel of a block, vectorized over the u64
/// lane pipeline. Bit-identical to calling pe::defective_output(seed,
/// x0+i, y, w[i], n[i]) per pixel (the scalar fallback does exactly
/// that).
EHW_KERNEL_INLINE void defective_row(std::uint64_t defect_seed,
                                     std::size_t x0, std::size_t y,
                                     const Pixel* w, const Pixel* n,
                                     Pixel* out, std::size_t len) noexcept {
  if constexpr (kSimdLanes) {
    // The SplitMix64 finalizer unrolled into a u64 lane loop: shifts,
    // xors and 64-bit multiplies only, so the whole pipeline vectorizes
    // (AVX-512 natively; AVX2/NEON via the compiler's 32x32 multiply
    // decomposition). XOR associativity lets the (seed, y) half of the
    // state hoist out of the loop.
    const std::uint64_t base =
        defect_seed ^ static_cast<std::uint64_t>(y);
    for (std::size_t i = 0; i < len; ++i) {
      std::uint64_t z = base ^ (static_cast<std::uint64_t>(x0 + i) << 32) ^
                        ((static_cast<std::uint64_t>(w[i]) << 8) | n[i]);
      z += 0x9E3779B97F4A7C15ULL;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      z ^= z >> 31;
      out[i] = static_cast<Pixel>(z >> 56);
    }
  } else {
    for (std::size_t i = 0; i < len; ++i) {
      out[i] = defective_output(defect_seed, x0 + i, y, w[i], n[i]);
    }
  }
}

}  // namespace ehw::pe
