// Randomized equivalence suite for the fused SIMD kernels and the
// fitness memo: every kernel variant the build compiled and the host
// runs (vectorized, or the EHW_SCALAR_KERNELS fallback) must stay
// bit-identical to the scalar mesh reference — over random defect maps,
// non-square frames, border rows and degenerate 1xN frames — and memo-on
// evaluation must be bit-identical to memo-off, including under
// concurrency. Runs under ASan and TSan in CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ehw/common/rng.hpp"
#include "ehw/common/thread_pool.hpp"
#include "ehw/evo/batch.hpp"
#include "ehw/evo/fitness_memo.hpp"
#include "ehw/evo/genotype.hpp"
#include "ehw/img/metrics.hpp"
#include "ehw/img/synthetic.hpp"
#include "ehw/pe/array.hpp"
#include "ehw/pe/compiled.hpp"
#include "ehw/pe/simd.hpp"

namespace ehw::pe {
namespace {

using detail::KernelVariant;
using detail::supported_kernels;

void inject_defects(SystolicArray& mesh, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const auto r = static_cast<std::size_t>(rng.below(mesh.shape().rows));
    const auto c = static_cast<std::size_t>(rng.below(mesh.shape().cols));
    CellConfig cc = mesh.cell(r, c);
    cc.defective = true;
    cc.defect_seed = rng();
    mesh.set_cell(r, c, cc);
  }
}

TEST(FusedKernel, DispatcherPicksWidestSupportedVariant) {
  // The variants the CPU can run, narrowest first, as
  // __builtin_cpu_supports reports them; the dispatcher must list
  // exactly these and pick the last.
  std::vector<std::string> expect;
#if defined(EHW_KERNEL_DISPATCH)
  expect.push_back("baseline");
  if (__builtin_cpu_supports("avx2")) expect.push_back("avx2");
#elif defined(EHW_SIMD_FORCE_SCALAR)
  expect.push_back("scalar");
#elif defined(EHW_NATIVE_ARCH)
  expect.push_back("native");
#else
  expect.push_back("baseline");
#endif
  std::vector<std::string> names;
  for (const KernelVariant& kernel : supported_kernels()) {
    names.emplace_back(kernel.name);
  }
  EXPECT_EQ(names, expect);
  EXPECT_EQ(&detail::chosen_kernel(), &supported_kernels().back());
  EXPECT_EQ(detail::chosen_kernel().name, expect.back());
}

// The two lane-kernel tests below pin the kernels' definitions as this
// test compiles them; the frame tests after them run the kernels inside
// every supported variant.
TEST(FusedKernel, DefectiveRowLaneKernelMatchesScalarDefinition) {
  // The vectorized defective-cell kernel must reproduce
  // pe::defective_output byte for byte at every (x, y, w, n) — including
  // block offsets x0 > 0 (the fused kernel calls it per block).
  Rng rng(0xD0D0);
  for (int rep = 0; rep < 8; ++rep) {
    const std::uint64_t seed = rng();
    const std::size_t len = 1 + rng.below(300);
    const std::size_t x0 = rng.below(5000);
    const std::size_t y = rng.below(5000);
    std::vector<Pixel> w(len), n(len), out(len);
    for (std::size_t i = 0; i < len; ++i) {
      w[i] = rng.byte();
      n[i] = rng.byte();
    }
    defective_row(seed, x0, y, w.data(), n.data(), out.data(), len);
    for (std::size_t i = 0; i < len; ++i) {
      ASSERT_EQ(out[i], defective_output(seed, x0 + i, y, w[i], n[i]))
          << "len=" << len << " x0=" << x0 << " y=" << y << " i=" << i;
    }
  }
}

TEST(FusedKernel, AbsErrorBlocksMatchPlainSum) {
  Rng rng(0xAB5);
  for (int rep = 0; rep < 8; ++rep) {
    const std::size_t len = 1 + rng.below(kFuseBlock);
    std::vector<Pixel> a(len), b(len);
    for (std::size_t i = 0; i < len; ++i) {
      a[i] = rng.byte();
      b[i] = rng.byte();
    }
    std::uint32_t expect = 0;
    for (std::size_t i = 0; i < len; ++i) {
      expect += static_cast<std::uint32_t>(
          a[i] > b[i] ? a[i] - b[i] : b[i] - a[i]);
    }
    EXPECT_EQ(abs_error_block(a.data(), b.data(), len), expect);
    const Pixel c = rng.byte();
    std::uint32_t expect_const = 0;
    for (std::size_t i = 0; i < len; ++i) {
      expect_const += static_cast<std::uint32_t>(
          c > b[i] ? c - b[i] : b[i] - c);
    }
    EXPECT_EQ(abs_error_const_block(c, b.data(), len), expect_const);
  }
}

TEST(FusedKernel, DefectHeavyFramesMatchMeshEverywhere) {
  // Defect-dense random programs over frame shapes that stress the
  // padded line ring: widths around the fuse-block boundary, degenerate
  // 1xN / Nx1 frames, single rows and non-square extremes. Defects are
  // never folded or fused away — the mesh reference decides.
  Rng rng(0x5EED5);
  const std::pair<std::size_t, std::size_t> frames[] = {
      {1, 1},   {1, 9},  {9, 1},   {2, 7},
      {7, 2},   {3, 3},  {kFuseBlock - 1, 4}, {kFuseBlock, 3},
      {kFuseBlock + 1, 3}, {37, 53},
  };
  for (int rep = 0; rep < 4; ++rep) {
    const std::size_t rows = 1 + rng.below(5);
    const std::size_t cols = 1 + rng.below(5);
    evo::Genotype g = evo::Genotype::random({rows, cols}, rng);
    g.set_output_row(static_cast<std::uint8_t>(rng.below(rows)));
    SystolicArray mesh = g.to_array();
    inject_defects(mesh, rng, 1 + rep * 2);
    const CompiledArray compiled(mesh);
    for (const auto& [w, h] : frames) {
      const img::Image src = img::make_scene(w, h, rng() & 0xFFFF);
      const img::Image ref = img::make_scene(w, h, rng() & 0xFFFF);
      const img::Image mesh_out = mesh.filter(src);
      for (const KernelVariant& kernel : supported_kernels()) {
        img::Image out(w, h);
        compiled.filter_into(src, out, nullptr, kernel);
        EXPECT_EQ(mesh_out, out) << kernel.name << " " << rows << "x"
                                 << cols << " frame " << w << "x" << h;
        EXPECT_EQ(compiled.fitness_against(src, ref, nullptr, kernel),
                  img::aggregated_mae(mesh_out, ref))
            << kernel.name;
      }
    }
  }
}

TEST(FusedKernel, ChunkedBordersAgreeWithWholeFrame) {
  // parallel_chunks splits the frame into row ranges; every chunk builds
  // its own line ring and must reproduce the unchunked result exactly,
  // including at chunk-boundary rows.
  Rng rng(0xC4C4);
  ThreadPool pool(3);
  for (int rep = 0; rep < 3; ++rep) {
    SystolicArray mesh = evo::Genotype::random({4, 4}, rng).to_array();
    inject_defects(mesh, rng, 3);
    const CompiledArray compiled(mesh);
    const img::Image src = img::make_scene(65, 97, rep + 11);
    const img::Image ref = img::make_scene(65, 97, rep + 90);
    const img::Image mesh_out = mesh.filter(src);
    for (const KernelVariant& kernel : supported_kernels()) {
      SCOPED_TRACE(kernel.name);
      img::Image seq(65, 97), par(65, 97);
      compiled.filter_into(src, seq, nullptr, kernel);
      compiled.filter_into(src, par, &pool, kernel);
      EXPECT_EQ(seq, par);
      EXPECT_EQ(seq, mesh_out);
      EXPECT_EQ(compiled.fitness_against(src, ref, &pool, kernel),
                compiled.fitness_against(src, ref, nullptr, kernel));
    }
  }
}

}  // namespace
}  // namespace ehw::pe

namespace ehw::evo {
namespace {

std::vector<Genotype> population_with_revisits(Rng& rng, std::size_t count) {
  std::vector<Genotype> population;
  population.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i >= 2 && i % 3 == 0) {
      population.push_back(population[i / 2]);  // deliberate revisit
    } else {
      population.push_back(Genotype::random({4, 4}, rng));
    }
  }
  return population;
}

TEST(FitnessMemo, LruStatsAndDisabledMode) {
  FitnessMemo memo(2);
  Fitness f = 0;
  EXPECT_FALSE(memo.lookup(1, &f));
  memo.store(1, 100);
  memo.store(2, 200);
  EXPECT_TRUE(memo.lookup(1, &f));  // 1 becomes MRU
  EXPECT_EQ(f, 100u);
  memo.store(3, 300);  // evicts 2
  EXPECT_FALSE(memo.lookup(2, &f));
  EXPECT_TRUE(memo.lookup(3, &f));
  EXPECT_EQ(f, 300u);
  const FitnessMemoStats stats = memo.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(memo.size(), 2u);

  FitnessMemo disabled(0);
  disabled.store(1, 100);
  EXPECT_FALSE(disabled.lookup(1, &f));
  EXPECT_EQ(disabled.size(), 0u);
}

TEST(FitnessMemo, MemoOnMatchesMemoOffBitExactly) {
  Rng rng(0x3E3E);
  const img::Image train = img::make_scene(48, 48, 3);
  const img::Image ref = img::make_scene(48, 48, 4);
  const std::vector<Genotype> population = population_with_revisits(rng, 24);

  const BatchEvaluator plain(train, ref, nullptr);
  FitnessMemo memo(1 << 10);
  const BatchEvaluator memoized(train, ref, nullptr, &memo);

  const std::vector<Fitness> expect = plain.evaluate_genotypes(population);
  EXPECT_EQ(memoized.evaluate_genotypes(population), expect);  // cold
  EXPECT_EQ(memoized.evaluate_genotypes(population), expect);  // warm
  const BatchMemoStats stats = memoized.memo_stats();
  EXPECT_GT(stats.hits, 0u);  // revisits + the full warm replay
  EXPECT_GT(memo.stats().hit_rate(), 0.4);
  for (const Genotype& g : population) {
    EXPECT_EQ(memoized.evaluate_one(g), plain.evaluate_one(g));
  }
}

TEST(FitnessMemo, DistinctFrameSetsNeverShareEntries) {
  Rng rng(0x1F1F);
  const Genotype g = Genotype::random({4, 4}, rng);
  const img::Image train_a = img::make_scene(32, 32, 1);
  const img::Image ref_a = img::make_scene(32, 32, 2);
  const img::Image train_b = img::make_scene(32, 32, 8);
  const img::Image ref_b = img::make_scene(32, 32, 9);
  FitnessMemo memo(64);
  const BatchEvaluator eval_a(train_a, ref_a, nullptr, &memo);
  const BatchEvaluator eval_b(train_b, ref_b, nullptr, &memo);
  static_cast<void>(eval_a.evaluate_one(g));
  const Fitness fb = eval_b.evaluate_one(g);
  const BatchEvaluator plain_b(train_b, ref_b, nullptr);
  EXPECT_EQ(fb, plain_b.evaluate_one(g));  // no cross-frame pollution
  // Same genotype, different frames: two distinct entries, zero hits.
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.stats().hits, 0u);
}

TEST(FitnessMemo, ConcurrentEvaluatorsStayBitIdentical) {
  // Several threads hammer one shared memo with overlapping populations;
  // every thread must see exactly the memo-off fitness values.
  Rng rng(0x7A7A);
  const img::Image train = img::make_scene(40, 40, 5);
  const img::Image ref = img::make_scene(40, 40, 6);
  const std::vector<Genotype> population = population_with_revisits(rng, 16);
  const BatchEvaluator plain(train, ref, nullptr);
  const std::vector<Fitness> expect = plain.evaluate_genotypes(population);

  FitnessMemo memo(1 << 10);
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      const BatchEvaluator memoized(train, ref, nullptr, &memo);
      for (int round = 0; round < 3; ++round) {
        if (memoized.evaluate_genotypes(population) != expect) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(memo.stats().hits, 0u);
}

}  // namespace
}  // namespace ehw::evo
