// Tests for ehw/img: container semantics, window gathering, PGM I/O,
// synthetic scenes, noise injectors, golden filters and metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <latch>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "ehw/common/rng.hpp"
#include "ehw/img/filters.hpp"
#include "ehw/img/image.hpp"
#include "ehw/img/metrics.hpp"
#include "ehw/img/noise.hpp"
#include "ehw/img/pgm_io.hpp"
#include "ehw/img/synthetic.hpp"

namespace ehw::img {
namespace {

TEST(Image, BasicAccessors) {
  Image im(4, 3, 7);
  EXPECT_EQ(im.width(), 4u);
  EXPECT_EQ(im.height(), 3u);
  EXPECT_EQ(im.pixel_count(), 12u);
  EXPECT_EQ(im.at(0, 0), 7);
  im.set(2, 1, 99);
  EXPECT_EQ(im.at(2, 1), 99);
  EXPECT_EQ(im.row(1)[2], 99);
}

TEST(Image, ClampedAccessReplicatesBorder) {
  Image im(3, 3);
  for (std::size_t y = 0; y < 3; ++y) {
    for (std::size_t x = 0; x < 3; ++x) {
      im.set(x, y, static_cast<Pixel>(10 * y + x));
    }
  }
  EXPECT_EQ(im.at_clamped(-1, -1), im.at(0, 0));
  EXPECT_EQ(im.at_clamped(3, 1), im.at(2, 1));
  EXPECT_EQ(im.at_clamped(1, 5), im.at(1, 2));
  EXPECT_EQ(im.at_clamped(1, 1), im.at(1, 1));
}

TEST(Image, WindowGatherOrderAndBorders) {
  Image im(3, 3);
  for (std::size_t i = 0; i < 9; ++i) {
    im.set(i % 3, i / 3, static_cast<Pixel>(i));
  }
  Pixel win[9];
  gather_window3x3(im, 1, 1, win);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(win[i], i);
  // Corner window replicates.
  gather_window3x3(im, 0, 0, win);
  EXPECT_EQ(win[0], im.at(0, 0));
  EXPECT_EQ(win[4], im.at(0, 0));
  EXPECT_EQ(win[8], im.at(1, 1));
}

TEST(Image, EqualityIsDeep) {
  Image a(2, 2, 1), b(2, 2, 1);
  EXPECT_EQ(a, b);
  b.set(0, 0, 2);
  EXPECT_FALSE(a == b);
}

TEST(Image, KeptContentHashDropsOnEveryMutator) {
  // Every value content_hash() returns must equal a fresh scan, however
  // the pixels changed since it was kept (Debug builds also assert this
  // inside the call).
  const auto fresh = [](const Image& image) {
    return image.content_hash() == image.scan_content_hash();
  };
  Image im = make_scene(37, 11, 5);
  std::uint64_t kept = im.content_hash();

  im.set(3, 4, static_cast<Pixel>(im.at(3, 4) ^ 0x5A));
  EXPECT_NE(im.content_hash(), kept) << "set";
  EXPECT_TRUE(fresh(im));
  kept = im.content_hash();

  Pixel* row = im.row(7);
  row[2] = static_cast<Pixel>(row[2] ^ 0x5A);
  EXPECT_NE(im.content_hash(), kept) << "write through row()";
  EXPECT_TRUE(fresh(im));
  kept = im.content_hash();

  im.fill(9);
  EXPECT_NE(im.content_hash(), kept) << "fill";
  EXPECT_TRUE(fresh(im));
  kept = im.content_hash();

  // Copies and moves carry the kept hash.
  Image copy = im;
  EXPECT_EQ(copy.content_hash(), kept);
  EXPECT_TRUE(fresh(copy));
  const Image moved = std::move(copy);
  EXPECT_EQ(moved.content_hash(), kept);
  EXPECT_TRUE(fresh(moved));

  // Assignment from a different image replaces the target's kept hash
  // with the source's, whether the source kept one or not.
  const Image hashed = make_scene(37, 11, 6);
  const std::uint64_t hashed_hash = hashed.content_hash();
  im = hashed;
  EXPECT_EQ(im.content_hash(), hashed_hash) << "copy assignment";
  EXPECT_TRUE(fresh(im));
  const Image unhashed = make_scene(37, 11, 7);
  im = unhashed;
  EXPECT_EQ(im.content_hash(), unhashed.scan_content_hash())
      << "copy assignment from an image with no kept hash";
  EXPECT_TRUE(fresh(im));
  Image source = make_scene(20, 9, 8);
  const std::uint64_t source_hash = source.scan_content_hash();
  im = std::move(source);
  EXPECT_EQ(im.content_hash(), source_hash) << "move assignment";
  EXPECT_TRUE(fresh(im));
}

TEST(Image, SharedFrameHashesAgreeAcrossThreads) {
  // MissionImagesCache shares one const frame across missions, so the
  // first content_hash() calls may race; each must see the scan's value.
  const Image frame = make_scene(192, 160, 21);
  const std::uint64_t expect = frame.scan_content_hash();
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> seen(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t h = frame.content_hash();
        if (i == 0 || h != expect) seen[t] = h;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], expect) << t;
  EXPECT_EQ(frame.content_hash(), expect);
}

TEST(PgmIo, BinaryRoundTrip) {
  Image im = make_scene(17, 11, 5);
  std::stringstream ss;
  write_pgm(im, ss);
  const Image back = read_pgm(ss);
  EXPECT_EQ(im, back);
}

TEST(PgmIo, ReadsAsciiVariant) {
  std::stringstream ss("P2\n# comment\n2 2\n255\n0 128\n255 64\n");
  const Image im = read_pgm(ss);
  EXPECT_EQ(im.at(0, 0), 0);
  EXPECT_EQ(im.at(1, 0), 128);
  EXPECT_EQ(im.at(0, 1), 255);
  EXPECT_EQ(im.at(1, 1), 64);
}

TEST(PgmIo, RejectsMalformed) {
  std::stringstream bad_magic("P7\n2 2\n255\n");
  EXPECT_THROW(read_pgm(bad_magic), std::runtime_error);
  std::stringstream truncated("P5\n4 4\n255\nab");
  EXPECT_THROW(read_pgm(truncated), std::runtime_error);
}

TEST(Synthetic, SceneIsDeterministicInSeed) {
  EXPECT_EQ(make_scene(32, 32, 9), make_scene(32, 32, 9));
  EXPECT_NE(make_scene(32, 32, 9), make_scene(32, 32, 10));
}

TEST(Synthetic, SceneHasDynamicRange) {
  const Image s = make_scene(64, 64, 3);
  Pixel lo = 255, hi = 0;
  for (std::size_t y = 0; y < s.height(); ++y) {
    for (std::size_t x = 0; x < s.width(); ++x) {
      lo = std::min(lo, s.at(x, y));
      hi = std::max(hi, s.at(x, y));
    }
  }
  EXPECT_GT(hi - lo, 80);  // edges + blobs guarantee real contrast
}

TEST(Synthetic, GradientMonotone) {
  const Image g = make_gradient(16, 4, 0, 255);
  for (std::size_t x = 1; x < 16; ++x) {
    EXPECT_GE(g.at(x, 2), g.at(x - 1, 2));
  }
  EXPECT_EQ(g.at(0, 0), 0);
  EXPECT_EQ(g.at(15, 0), 255);
}

TEST(Synthetic, CheckerboardAlternates) {
  const Image c = make_checkerboard(8, 8, 2, 10, 200);
  EXPECT_EQ(c.at(0, 0), 200);
  EXPECT_EQ(c.at(2, 0), 10);
  EXPECT_EQ(c.at(0, 2), 10);
  EXPECT_EQ(c.at(2, 2), 200);
}

TEST(Synthetic, CalibrationPatternDeterministic) {
  EXPECT_EQ(make_calibration_pattern(32, 32), make_calibration_pattern(32, 32));
}

TEST(Noise, SaltPepperDensity) {
  const Image clean = make_constant(100, 100, 128);
  Rng rng(1);
  const Image noisy = add_salt_pepper(clean, 0.3, rng);
  const double frac = differing_fraction(clean, noisy);
  EXPECT_NEAR(frac, 0.3, 0.03);
  // Corrupted pixels are exactly 0 or 255.
  for (std::size_t y = 0; y < noisy.height(); ++y) {
    for (std::size_t x = 0; x < noisy.width(); ++x) {
      const Pixel p = noisy.at(x, y);
      EXPECT_TRUE(p == 128 || p == 0 || p == 255);
    }
  }
}

TEST(Noise, ZeroDensityIsIdentity) {
  const Image clean = make_scene(20, 20, 2);
  Rng rng(1);
  EXPECT_EQ(add_salt_pepper(clean, 0.0, rng), clean);
  EXPECT_EQ(add_impulse(clean, 0.0, rng), clean);
}

TEST(Noise, GaussianSigmaZeroIsIdentity) {
  const Image clean = make_scene(20, 20, 2);
  Rng rng(1);
  EXPECT_EQ(add_gaussian(clean, 0.0, rng), clean);
}

TEST(Noise, GaussianPerturbsMildly) {
  const Image clean = make_constant(64, 64, 128);
  Rng rng(1);
  const Image noisy = add_gaussian(clean, 10.0, rng);
  const double mae = mean_absolute_error(clean, noisy);
  // E|N(0,10)| ~ 8.0
  EXPECT_NEAR(mae, 8.0, 1.5);
}

TEST(Filters, MedianRemovesIsolatedImpulse) {
  Image im = make_constant(9, 9, 100);
  im.set(4, 4, 255);
  const Image out = median3x3(im);
  EXPECT_EQ(out.at(4, 4), 100);
}

TEST(Filters, MedianOfKnownWindow) {
  Image im(3, 3);
  const Pixel vals[9] = {9, 1, 8, 2, 7, 3, 6, 4, 5};
  for (std::size_t i = 0; i < 9; ++i) im.set(i % 3, i / 3, vals[i]);
  EXPECT_EQ(median3x3(im).at(1, 1), 5);
}

TEST(Filters, MeanOnConstantIsConstant) {
  const Image im = make_constant(8, 8, 57);
  EXPECT_EQ(mean3x3(im), im);
}

TEST(Filters, GaussianPreservesConstant) {
  const Image im = make_constant(8, 8, 200);
  EXPECT_EQ(gaussian3x3(im), im);
}

TEST(Filters, SobelZeroOnFlat) {
  const Image im = make_constant(8, 8, 91);
  const Image e = sobel_magnitude(im);
  for (std::size_t y = 0; y < e.height(); ++y) {
    for (std::size_t x = 0; x < e.width(); ++x) EXPECT_EQ(e.at(x, y), 0);
  }
}

TEST(Filters, SobelRespondsToEdge) {
  Image im(8, 8, 0);
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 4; x < 8; ++x) im.set(x, y, 255);
  }
  const Image e = sobel_magnitude(im);
  EXPECT_EQ(e.at(1, 4), 0);    // far from edge
  EXPECT_GT(e.at(4, 4), 200);  // on the edge
}

TEST(Filters, ConvolveIdentityKernel) {
  const Image im = make_scene(16, 16, 8);
  const int kernel[9] = {0, 0, 0, 0, 1, 0, 0, 0, 0};
  EXPECT_EQ(convolve3x3(im, kernel, 1), im);
}

TEST(Filters, ApplyNChainsFilter) {
  const Image im = make_scene(16, 16, 8);
  const Image twice = apply_n(im, 2, [](const Image& x) { return mean3x3(x); });
  EXPECT_EQ(twice, mean3x3(mean3x3(im)));
}

TEST(Metrics, AggregatedMaeBasics) {
  const Image a = make_constant(4, 4, 10);
  const Image b = make_constant(4, 4, 13);
  EXPECT_EQ(aggregated_mae(a, a), 0u);
  EXPECT_EQ(aggregated_mae(a, b), 16u * 3u);
  EXPECT_EQ(aggregated_mae(b, a), 16u * 3u);  // symmetric
  EXPECT_DOUBLE_EQ(mean_absolute_error(a, b), 3.0);
}

TEST(Metrics, TriangleInequalityHolds) {
  const Image a = make_scene(16, 16, 1);
  const Image b = make_scene(16, 16, 2);
  const Image c = make_scene(16, 16, 3);
  EXPECT_LE(aggregated_mae(a, c),
            aggregated_mae(a, b) + aggregated_mae(b, c));
}

TEST(Metrics, PsnrIdenticalIsInfinite) {
  const Image a = make_scene(8, 8, 4);
  EXPECT_TRUE(std::isinf(psnr(a, a)));
}

TEST(Metrics, PsnrOrdersNoiseLevels) {
  const Image clean = make_scene(64, 64, 4);
  Rng r1(1), r2(2);
  const Image mild = add_salt_pepper(clean, 0.05, r1);
  const Image heavy = add_salt_pepper(clean, 0.4, r2);
  EXPECT_GT(psnr(clean, mild), psnr(clean, heavy));
}

TEST(Metrics, MaxAbsDifference) {
  Image a = make_constant(4, 4, 100);
  Image b = a;
  b.set(2, 2, 250);
  EXPECT_EQ(max_abs_difference(a, b), 150);
  EXPECT_EQ(max_abs_difference(a, a), 0);
}

TEST(Metrics, ShapeMismatchThrows) {
  const Image a(4, 4), b(4, 5);
  EXPECT_THROW((void)aggregated_mae(a, b), std::logic_error);
}

}  // namespace
}  // namespace ehw::img
