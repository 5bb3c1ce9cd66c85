// Randomized equivalence suite for the row-vectorized evaluation engine:
// CompiledArray's row kernel (filter_into / fitness_against) must be
// bit-identical to the per-window scalar path (CompiledArray::evaluate)
// and to the reference mesh model (SystolicArray::evaluate) over random
// genotypes — including defective cells, every output row, non-square
// shapes, constant/identity-heavy programs and full frames with borders.
// Every kernel variant the host supports runs, not only the one the
// dispatcher picks (pe::detail::supported_kernels).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ehw/common/rng.hpp"
#include "ehw/common/thread_pool.hpp"
#include "ehw/evo/batch.hpp"
#include "ehw/evo/genotype.hpp"
#include "ehw/img/metrics.hpp"
#include "ehw/img/synthetic.hpp"
#include "ehw/pe/array.hpp"
#include "ehw/pe/compiled.hpp"

namespace ehw::pe {
namespace {

/// Filters via the public scalar path only (per-window evaluate), the
/// pre-row-kernel behaviour the engine must reproduce exactly.
img::Image scalar_filter(const CompiledArray& compiled,
                         const img::Image& src) {
  img::Image out(src.width(), src.height());
  Pixel win[kWindowTaps];
  for (std::size_t y = 0; y < src.height(); ++y) {
    for (std::size_t x = 0; x < src.width(); ++x) {
      img::gather_window3x3(src, x, y, win);
      out.set(x, y, compiled.evaluate(win, x, y));
    }
  }
  return out;
}

using detail::KernelVariant;
using detail::supported_kernels;

/// CompiledArray::filter through one given kernel variant.
img::Image filter_with(const CompiledArray& compiled, const img::Image& src,
                       const KernelVariant& kernel) {
  img::Image out(src.width(), src.height());
  compiled.filter_into(src, out, nullptr, kernel);
  return out;
}

/// Sprinkles deterministic defects over the mesh (including, sometimes,
/// cells above/below the output row).
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

struct EquivCase {
  std::size_t rows, cols;
  std::size_t width, height;
  int defects;
};

class RowKernelEquivalence
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RowKernelEquivalence, RandomGenotypesAllPathsAgree) {
  Rng rng(GetParam() * 0x9E3779B97F4A7C15ULL + 1);
  const EquivCase cases[] = {
      {4, 4, 33, 17, 0}, {4, 4, 16, 16, 2}, {3, 5, 20, 11, 1},
      {5, 3, 13, 24, 3}, {1, 4, 9, 9, 1},   {2, 2, 7, 31, 0},
      {6, 2, 12, 12, 4},
  };
  for (const EquivCase& ec : cases) {
    evo::Genotype g = evo::Genotype::random(
        {ec.rows, ec.cols}, rng);
    for (std::uint8_t out_row = 0; out_row < ec.rows; ++out_row) {
      g.set_output_row(out_row);
      SystolicArray mesh = g.to_array();
      inject_defects(mesh, rng, ec.defects);
      const CompiledArray compiled(mesh);
      const img::Image src =
          img::make_scene(ec.width, ec.height, rng() & 0xFFFF);
      const img::Image ref =
          img::make_scene(ec.width, ec.height, rng() & 0xFFFF);

      // Reference mesh vs row kernel vs scalar path: bit-identical frames.
      const img::Image mesh_out = mesh.filter(src);
      EXPECT_EQ(scalar_filter(compiled, src), mesh_out);
      for (const KernelVariant& kernel : supported_kernels()) {
        SCOPED_TRACE(kernel.name);
        const img::Image row_out = filter_with(compiled, src, kernel);
        EXPECT_EQ(mesh_out, row_out);

        // Fitness fast path equals MAE over the materialized frame.
        EXPECT_EQ(compiled.fitness_against(src, ref, nullptr, kernel),
                  img::aggregated_mae(row_out, ref));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowKernelEquivalence,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(RowKernel, BorderOnlyFramesFallBackToScalar) {
  // Degenerate frames with no interior (w < 3 or h < 3) must still agree.
  Rng rng(77);
  const evo::Genotype g = evo::Genotype::random({4, 4}, rng);
  SystolicArray mesh = g.to_array();
  inject_defects(mesh, rng, 2);
  const CompiledArray compiled(mesh);
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{1, 1},
                             {2, 5}, {5, 2}, {3, 1}, {1, 8}, {3, 3}}) {
    const img::Image src = img::make_scene(w, h, w * 31 + h);
    for (const KernelVariant& kernel : supported_kernels()) {
      EXPECT_EQ(mesh.filter(src), filter_with(compiled, src, kernel))
          << kernel.name << " " << w << "x" << h;
    }
  }
}

TEST(RowKernel, FoldedProgramsStayExact) {
  // Programs dominated by identity/constant cells exercise the compile-
  // time folding: aliases chains, constant propagation, constant output.
  const fpga::ArrayShape shape{4, 4};
  const img::Image src = img::make_scene(19, 13, 5);

  // All-identity-W: output = west input tap of the output row.
  {
    evo::Genotype g(shape);
    for (std::size_t i = 0; i < g.cell_count(); ++i) {
      g.set_function_gene(i, static_cast<std::uint8_t>(PeOp::kIdentityW));
    }
    for (std::size_t i = 0; i < g.input_count(); ++i) {
      g.set_tap_gene(i, static_cast<std::uint8_t>(i % kWindowTaps));
    }
    for (std::uint8_t out = 0; out < 4; ++out) {
      g.set_output_row(out);
      const SystolicArray mesh = g.to_array();
      const CompiledArray compiled(mesh);
      EXPECT_EQ(compiled.step_count(), 0u);  // fully folded to an alias
      EXPECT_EQ(compiled.active_cell_count(), (out + 1u) * 4u);
      for (const KernelVariant& kernel : supported_kernels()) {
        EXPECT_EQ(mesh.filter(src), filter_with(compiled, src, kernel))
            << kernel.name;
      }
    }
  }

  // Constant-dominated: C255 feeding inverts/shifts folds to a constant.
  {
    evo::Genotype g(shape);
    for (std::size_t i = 0; i < g.cell_count(); ++i) {
      g.set_function_gene(
          i, static_cast<std::uint8_t>(i % 2 == 0 ? PeOp::kConst255
                                                  : PeOp::kShiftR1));
    }
    g.set_output_row(3);
    const SystolicArray mesh = g.to_array();
    const CompiledArray compiled(mesh);
    EXPECT_EQ(compiled.step_count(), 0u);  // fully constant-folded
    const img::Image ref = img::make_scene(19, 13, 9);
    for (const KernelVariant& kernel : supported_kernels()) {
      SCOPED_TRACE(kernel.name);
      EXPECT_EQ(mesh.filter(src), filter_with(compiled, src, kernel));
      EXPECT_EQ(compiled.fitness_against(src, ref, nullptr, kernel),
                img::aggregated_mae(mesh.filter(src), ref));
    }
  }

  // Defective cell fed by folded constants: the defect must see the same
  // input values as the unfolded program.
  {
    evo::Genotype g(shape);
    for (std::size_t i = 0; i < g.cell_count(); ++i) {
      g.set_function_gene(i, static_cast<std::uint8_t>(PeOp::kConst255));
    }
    g.set_output_row(3);
    SystolicArray mesh = g.to_array();
    CellConfig cc = mesh.cell(3, 3);
    cc.defective = true;
    cc.defect_seed = 4242;
    mesh.set_cell(3, 3, cc);
    const CompiledArray compiled(mesh);
    EXPECT_TRUE(compiled.any_defective_active());
    for (const KernelVariant& kernel : supported_kernels()) {
      EXPECT_EQ(mesh.filter(src), filter_with(compiled, src, kernel))
          << kernel.name;
    }
  }
}

TEST(RowKernel, ThreadedChunksMatchSequential) {
  Rng rng(31);
  ThreadPool pool(4);
  for (int rep = 0; rep < 4; ++rep) {
    const evo::Genotype g = evo::Genotype::random({4, 4}, rng);
    SystolicArray mesh = g.to_array();
    if (rep % 2 == 1) inject_defects(mesh, rng, 2);
    const CompiledArray compiled(mesh);
    const img::Image src = img::make_scene(96, 96, rep + 40);
    const img::Image ref = img::make_scene(96, 96, rep + 80);
    const img::Image mesh_out = mesh.filter(src);
    for (const KernelVariant& kernel : supported_kernels()) {
      SCOPED_TRACE(kernel.name);
      img::Image seq(96, 96), par(96, 96);
      compiled.filter_into(src, seq, nullptr, kernel);
      compiled.filter_into(src, par, &pool, kernel);
      EXPECT_EQ(seq, par);
      EXPECT_EQ(seq, mesh_out);
      EXPECT_EQ(compiled.fitness_against(src, ref, &pool, kernel),
                compiled.fitness_against(src, ref, nullptr, kernel));
    }
  }
}

TEST(BatchEvaluator, MatchesPerCandidateEvaluation) {
  Rng rng(91);
  const img::Image train = img::make_scene(64, 64, 3);
  const img::Image ref = img::make_scene(64, 64, 4);
  std::vector<evo::Genotype> population;
  for (int i = 0; i < 16; ++i) {
    population.push_back(evo::Genotype::random({4, 4}, rng));
  }
  ThreadPool pool(4);
  const evo::BatchEvaluator parallel_eval(train, ref, &pool);
  const evo::BatchEvaluator serial_eval(train, ref, nullptr);
  const std::vector<Fitness> par = parallel_eval.evaluate_genotypes(population);
  const std::vector<Fitness> ser = serial_eval.evaluate_genotypes(population);
  ASSERT_EQ(par.size(), population.size());
  EXPECT_EQ(par, ser);
  for (std::size_t i = 0; i < population.size(); ++i) {
    const CompiledArray compiled(population[i].to_array());
    EXPECT_EQ(par[i], compiled.fitness_against(train, ref));
  }
}

}  // namespace
}  // namespace ehw::pe
