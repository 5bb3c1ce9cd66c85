#pragma once
// 8-bit grayscale image container. This is the only data format the
// evolvable arrays process: the paper's system streams 8-bit pixels from
// flash/camera through 3x3 sliding windows into the arrays.
//
// Storage: row-major with the row stride padded up to a 64-byte multiple
// and the buffer allocated 64-byte aligned, so every row starts on its
// own cache line and the SIMD row kernels never issue a load that splits
// one. Padding bytes are kept at zero (and are never part of equality or
// content_hash), so images stay value-comparable. There is deliberately
// no flat data() accessor — iterate rows via row(y); the stride is an
// implementation detail callers must not bake in.
//
// Kept content hash: content_hash() scans the pixels once and keeps the
// value, so a frame pair's identity (evo::frame_set_id) costs O(1) after
// its first wave. Every way to change the pixels drops it — set(), the
// non-const row() (a caller may write through the pointer), fill() and
// copy/move assignment (which take the source's kept hash instead).
// Copies and moves carry it. Debug builds check the kept value against
// a fresh scan_content_hash() on every call.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ehw/common/aligned.hpp"
#include "ehw/common/assert.hpp"
#include "ehw/common/rng.hpp"
#include "ehw/common/types.hpp"

namespace ehw::img {

class Image {
 public:
  Image() = default;

  /// Creates a width x height image filled with `fill`.
  Image(std::size_t width, std::size_t height, Pixel fill = 0)
      : width_(width),
        height_(height),
        stride_((width + kCacheLineBytes - 1) & ~(kCacheLineBytes - 1)),
        data_(stride_ * height) {
    EHW_REQUIRE(width > 0 && height > 0, "image dimensions must be positive");
    if (fill != 0) this->fill(fill);
  }

  [[nodiscard]] std::size_t width() const noexcept { return width_; }
  [[nodiscard]] std::size_t height() const noexcept { return height_; }
  /// Logical pixels (padding excluded).
  [[nodiscard]] std::size_t pixel_count() const noexcept {
    return width_ * height_;
  }
  /// Bytes from one row's first pixel to the next row's (>= width; a
  /// 64-byte multiple). Exposed for kernels that walk rows by pointer.
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] Pixel at(std::size_t x, std::size_t y) const {
    EHW_ASSERT(x < width_ && y < height_, "pixel out of bounds");
    return data_[y * stride_ + x];
  }
  void set(std::size_t x, std::size_t y, Pixel v) {
    EHW_ASSERT(x < width_ && y < height_, "pixel out of bounds");
    kept_hash_.drop();
    data_[y * stride_ + x] = v;
  }

  /// Border-replicated ("clamp to edge") access; how the window FIFOs in
  /// the platform extend the image beyond its edges.
  [[nodiscard]] Pixel at_clamped(std::ptrdiff_t x, std::ptrdiff_t y) const {
    const auto cx = clamp_index(x, width_);
    const auto cy = clamp_index(y, height_);
    return data_[cy * stride_ + cx];
  }

  /// Row pointers (64-byte aligned; width() valid pixels each). The
  /// non-const form drops the kept content hash: compute content_hash()
  /// only after the last write through a pointer it returned.
  [[nodiscard]] const Pixel* row(std::size_t y) const {
    EHW_ASSERT(y < height_, "row out of bounds");
    return data_.data() + y * stride_;
  }
  [[nodiscard]] Pixel* row(std::size_t y) {
    EHW_ASSERT(y < height_, "row out of bounds");
    kept_hash_.drop();
    return data_.data() + y * stride_;
  }

  void fill(Pixel v) noexcept {
    kept_hash_.drop();
    // Row spans only: inter-row padding stays zero so equality and
    // content_hash remain content-only.
    for (std::size_t y = 0; y < height_; ++y) {
      Pixel* r = data_.data() + y * stride_;
      for (std::size_t x = 0; x < width_; ++x) r[x] = v;
    }
  }

  [[nodiscard]] bool same_shape(const Image& other) const noexcept {
    return width_ == other.width_ && height_ == other.height_;
  }

  /// Stable 64-bit content hash over the shape and every pixel (row-major,
  /// padding excluded; SplitMix64-chained like evo::Genotype::hash). The
  /// fitness memo uses this as the frame-set identity, so equal images
  /// must hash equally on every host and build. Scans once, then returns
  /// the kept value until the pixels change (see the file comment); safe
  /// to call from many threads on one shared const image.
  [[nodiscard]] std::uint64_t content_hash() const {
    std::uint64_t h = kept_hash_.get();
    if (h == 0) {
      h = scan_content_hash();
      kept_hash_.keep(h);
    }
    EHW_ASSERT(h == scan_content_hash(), "kept image hash is stale");
    return h;
  }

  /// The full O(pixels) scan behind content_hash().
  [[nodiscard]] std::uint64_t scan_content_hash() const noexcept {
    std::uint64_t h = 0x696D670000000001ULL;  // 'img' tag, arbitrary
    const auto mix = [&h](std::uint64_t v) noexcept {
      std::uint64_t s = h ^ (v * 0x9E3779B97F4A7C15ULL);
      h = splitmix64(s);
    };
    mix(width_);
    mix(height_);
    for (std::size_t y = 0; y < height_; ++y) {
      const Pixel* r = data_.data() + y * stride_;
      std::size_t x = 0;
      for (; x + 8 <= width_; x += 8) {
        std::uint64_t word = 0;
        for (std::size_t b = 0; b < 8; ++b) {
          word |= static_cast<std::uint64_t>(r[x + b]) << (8 * b);
        }
        mix(word);
      }
      if (x < width_) {
        std::uint64_t tail = 0;
        for (std::size_t b = 0; x + b < width_; ++b) {
          tail |= static_cast<std::uint64_t>(r[x + b]) << (8 * b);
        }
        mix(tail ^ (static_cast<std::uint64_t>(width_ - x) << 56));
      }
    }
    return h;
  }

  friend bool operator==(const Image& a, const Image& b) noexcept {
    // Padding is zero on both sides by construction, so the raw buffers
    // compare equal iff the visible pixels do.
    return a.width_ == b.width_ && a.height_ == b.height_ &&
           a.data_ == b.data_;
  }

 private:
  static std::size_t clamp_index(std::ptrdiff_t i, std::size_t n) noexcept {
    if (i < 0) return 0;
    if (static_cast<std::size_t>(i) >= n) return n - 1;
    return static_cast<std::size_t>(i);
  }

  /// content_hash() once computed, 0 until then (a scan that yields 0 is
  /// simply not kept). Atomic so concurrent first calls on a shared const
  /// image are race-free: each stores the same value. Copying carries it.
  class KeptHash {
   public:
    KeptHash() = default;
    KeptHash(const KeptHash& other) noexcept : value_(other.get()) {}
    KeptHash& operator=(const KeptHash& other) noexcept {
      value_ = other.get();
      return *this;
    }
    [[nodiscard]] std::uint64_t get() const noexcept { return value_; }
    void keep(std::uint64_t h) const noexcept { value_ = h; }
    void drop() noexcept {
      // Test first: writers that share an image's rows across threads
      // (filter_into over a pool) then never store to a shared line.
      if (value_ != 0) value_ = 0;
    }

   private:
    mutable std::atomic<std::uint64_t> value_{0};
  };

  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::size_t stride_ = 0;
  std::vector<Pixel, AlignedAllocator<Pixel, kCacheLineBytes>> data_;
  KeptHash kept_hash_;
};

/// Gathers the 3x3 border-replicated window centred on (x, y) into `out`
/// in row-major order:
///   out[0] out[1] out[2]
///   out[3] out[4] out[5]     (out[4] is the centre pixel)
///   out[6] out[7] out[8]
/// This indexing is the contract between the platform's line FIFOs and the
/// array input muxes (each of the 8 array inputs selects one of these 9).
inline void gather_window3x3(const Image& src, std::size_t x, std::size_t y,
                             Pixel out[9]) {
  const auto ix = static_cast<std::ptrdiff_t>(x);
  const auto iy = static_cast<std::ptrdiff_t>(y);
  int k = 0;
  for (std::ptrdiff_t dy = -1; dy <= 1; ++dy) {
    for (std::ptrdiff_t dx = -1; dx <= 1; ++dx) {
      out[k++] = src.at_clamped(ix + dx, iy + dy);
    }
  }
}

}  // namespace ehw::img
