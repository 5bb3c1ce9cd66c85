// Tests for ehw/platform core pieces: the self-addressing register file,
// ACB control semantics, voters, and the EvolvablePlatform's configure /
// evaluate / fault / scrub behaviour.

#include <gtest/gtest.h>

#include "ehw/evo/fitness.hpp"
#include "ehw/img/noise.hpp"
#include "ehw/img/synthetic.hpp"
#include "ehw/platform/platform.hpp"
#include "ehw/platform/voter.hpp"
#include "test_util.hpp"

namespace ehw::platform {
namespace {

TEST(RegisterFile, GlobalBlockIsReadOnly) {
  RegisterFile regs(3);
  EXPECT_EQ(regs.read(kRegNumAcbs), 3u);
  EXPECT_EQ(regs.read(kRegPlatformId) & 0xFF, 3u);
  regs.write(kRegNumAcbs, 99);  // ignored
  EXPECT_EQ(regs.read(kRegNumAcbs), 3u);
}

TEST(RegisterFile, DecodeMapsAcbBlocks) {
  RegisterFile regs(3);
  std::size_t acb = 0;
  RegAddr off = 0;
  EXPECT_TRUE(regs.decode(RegisterFile::acb_reg(2, kRegCtrl), &acb, &off));
  EXPECT_EQ(acb, 2u);
  EXPECT_EQ(off, kRegCtrl);
  EXPECT_FALSE(regs.decode(0x50, nullptr, nullptr));  // below ACB base
  EXPECT_FALSE(regs.decode(RegisterFile::acb_reg(3, 0), nullptr, nullptr));
}

TEST(RegisterFile, RoRegistersIgnoreBusWrites) {
  RegisterFile regs(1);
  const RegAddr fit = RegisterFile::acb_reg(0, kRegFitnessLo);
  regs.write(fit, 0x1234);
  EXPECT_EQ(regs.read(fit), 0u);
  regs.publish(fit, 0x1234);  // hardware side can
  EXPECT_EQ(regs.read(fit), 0x1234u);
}

TEST(RegisterFile, RwRegistersAcceptWrites) {
  RegisterFile regs(2);
  const RegAddr tap = RegisterFile::acb_reg(1, kRegInputTap0 + 3);
  regs.write(tap, 7);
  EXPECT_EQ(regs.read(tap), 7u);
}

TEST(Acb, ControlBitFields) {
  RegisterFile regs(2);
  ArrayControlBlock acb(regs, 1, 8, 4, 32, 100.0);
  EXPECT_FALSE(acb.bypass());
  acb.set_bypass(true);
  EXPECT_TRUE(acb.bypass());
  acb.set_input_source(InputSource::kPrevious);
  EXPECT_EQ(acb.input_source(), InputSource::kPrevious);
  acb.set_fitness_source(FitnessSource::kNeighborVsOut);
  EXPECT_EQ(acb.fitness_source(), FitnessSource::kNeighborVsOut);
  // Fields do not clobber each other.
  EXPECT_TRUE(acb.bypass());
  acb.set_bypass(false);
  EXPECT_EQ(acb.input_source(), InputSource::kPrevious);
}

TEST(Acb, TapsMaskLikeHardware) {
  RegisterFile regs(1);
  ArrayControlBlock acb(regs, 0, 8, 4, 32, 100.0);
  // Raw register poke with an oversized value: the 9-to-1 mux wraps.
  regs.write(RegisterFile::acb_reg(0, kRegInputTap0), 9 + 4);
  EXPECT_EQ(acb.input_taps()[0], 4);
}

TEST(Acb, FitnessPublication64Bit) {
  RegisterFile regs(1);
  ArrayControlBlock acb(regs, 0, 8, 4, 32, 100.0);
  EXPECT_FALSE(acb.fitness_valid());
  const Fitness big = (Fitness{0xAB} << 32) | 0x12345678u;
  acb.publish_fitness(big);
  EXPECT_TRUE(acb.fitness_valid());
  EXPECT_EQ(acb.read_fitness_registers(), big);
  acb.invalidate_fitness();
  EXPECT_FALSE(acb.fitness_valid());
}

TEST(LineFifoModel, FillCyclesAndCapacity) {
  LineFifo fifo(128, 100.0);
  EXPECT_EQ(fifo.fill_cycles(), 2u * 128u + 2u);
  EXPECT_EQ(fifo.capacity_pixels(), 3u * 128u);
  EXPECT_EQ(fifo.fill_time(), sim::cycles_at_mhz(258, 100.0));
}

TEST(FitnessVoterTest, UnanimousAndSingleDeviant) {
  FitnessVoter voter(10);
  EXPECT_FALSE(voter.vote({100, 105, 95}).faulty.has_value());
  const FitnessVote v = voter.vote({100, 400, 95});
  ASSERT_TRUE(v.faulty.has_value());
  EXPECT_EQ(*v.faulty, 1u);
  EXPECT_FALSE(v.inconclusive);
}

TEST(FitnessVoterTest, EachPositionLocalizable) {
  FitnessVoter voter(0);
  EXPECT_EQ(*voter.vote({9, 1, 1}).faulty, 0u);
  EXPECT_EQ(*voter.vote({1, 9, 1}).faulty, 1u);
  EXPECT_EQ(*voter.vote({1, 1, 9}).faulty, 2u);
}

TEST(FitnessVoterTest, AllDifferentIsInconclusive) {
  FitnessVoter voter(0);
  const FitnessVote v = voter.vote({1, 100, 10000});
  EXPECT_FALSE(v.faulty.has_value());
  EXPECT_TRUE(v.inconclusive);
}

TEST(PixelVoterTest, MajorityWins) {
  img::Image a = img::make_constant(4, 4, 10);
  img::Image b = img::make_constant(4, 4, 10);
  img::Image c = img::make_constant(4, 4, 99);
  const PixelVoteResult r = PixelVoter::vote(a, b, c);
  EXPECT_EQ(r.majority, a);
  EXPECT_EQ(r.outvoted[2], 16u);
  EXPECT_EQ(r.outvoted[0], 0u);
  EXPECT_EQ(r.no_majority, 0u);
}

TEST(PixelVoterTest, NoMajorityEmitsMedian) {
  img::Image a = img::make_constant(1, 1, 10);
  img::Image b = img::make_constant(1, 1, 20);
  img::Image c = img::make_constant(1, 1, 30);
  const PixelVoteResult r = PixelVoter::vote(a, b, c);
  EXPECT_EQ(r.majority.at(0, 0), 20);
  EXPECT_EQ(r.no_majority, 1u);
}

TEST(PixelVoterTest, MasksSingleFaultExactly) {
  // Property: whenever two streams agree, the third cannot influence the
  // voted output.
  const img::Image good = img::make_scene(16, 16, 3);
  Rng rng(4);
  const img::Image bad = img::add_salt_pepper(good, 0.5, rng);
  const PixelVoteResult r = PixelVoter::vote(good, bad, good);
  EXPECT_EQ(r.majority, good);
}

/// ---------------------------------------------------------------------------
struct PlatformFixture : ::testing::Test {
  PlatformFixture() : plat(test::small_platform_config(3)) {}
  EvolvablePlatform plat;
};

TEST_F(PlatformFixture, FirstConfigureWritesAllCells) {
  Rng rng(1);
  const evo::Genotype g = evo::Genotype::random({4, 4}, rng);
  const sim::Interval span = plat.configure_array(0, g, 0);
  EXPECT_EQ(plat.engine_stats().pe_writes, 16u);
  EXPECT_EQ(span.duration(), 16 * reconfig::kPeReconfigTime);
  ASSERT_TRUE(plat.configured_genotype(0).has_value());
  EXPECT_EQ(*plat.configured_genotype(0), g);
}

TEST_F(PlatformFixture, ReconfigureWritesOnlyDiff) {
  Rng rng(2);
  const evo::Genotype g = evo::Genotype::random({4, 4}, rng);
  plat.configure_array(0, g, 0);
  const std::uint64_t before = plat.engine_stats().pe_writes;
  evo::Genotype h = g;
  h.set_function_gene(5, (h.function_gene(5) + 1) % 16);
  h.set_tap_gene(0, (h.tap_gene(0) + 1) % 9);  // register gene: free
  plat.configure_array(0, h, 0);
  EXPECT_EQ(plat.engine_stats().pe_writes, before + 1);
}

TEST_F(PlatformFixture, IdenticalReconfigureIsFree) {
  Rng rng(3);
  const evo::Genotype g = evo::Genotype::random({4, 4}, rng);
  plat.configure_array(1, g, 0);
  const std::uint64_t before = plat.engine_stats().pe_writes;
  const sim::Interval span = plat.configure_array(1, g, 12345);
  EXPECT_EQ(plat.engine_stats().pe_writes, before);
  EXPECT_EQ(span.start, 12345);
  EXPECT_EQ(span.duration(), 0);
}

TEST_F(PlatformFixture, IntrinsicMatchesExtrinsicWithoutFaults) {
  Rng rng(4);
  const img::Image src = img::make_scene(32, 32, 9);
  for (int rep = 0; rep < 10; ++rep) {
    const evo::Genotype g = evo::Genotype::random({4, 4}, rng);
    plat.configure_array(2, g, 0);
    const img::Image intrinsic = plat.filter_array(2, src);
    const img::Image extrinsic = evo::apply_genotype(g, src);
    EXPECT_EQ(intrinsic, extrinsic);
  }
}

TEST_F(PlatformFixture, EvaluatePublishesFitnessToRegisters) {
  const img::Image src = img::make_scene(32, 32, 10);
  const img::Image ref = img::make_scene(32, 32, 11);
  plat.configure_array(0, test::identity_genotype(), 0);
  const EvaluationResult ev = plat.evaluate_array(0, src, ref, 0);
  EXPECT_EQ(ev.fitness, img::aggregated_mae(src, ref));  // identity filter
  // The EA reads the same value over the bus.
  EXPECT_EQ(plat.acb(0).read_fitness_registers(), ev.fitness);
  EXPECT_TRUE(plat.acb(0).fitness_valid());
}

TEST_F(PlatformFixture, EvaluateChargesFrameTime) {
  const img::Image src = img::make_scene(32, 32, 1);
  plat.configure_array(0, test::identity_genotype(), 0);
  const sim::SimTime t0 = plat.now();
  const EvaluationResult ev = plat.evaluate_array(0, src, src, t0);
  EXPECT_EQ(ev.span.duration(), plat.frame_time(32, 32));
  // 32x32 + latency margin cycles at 100 MHz ~ 10.36 us.
  EXPECT_NEAR(sim::to_microseconds(ev.span.duration()), 10.36, 0.2);
}

TEST_F(PlatformFixture, PeFaultMakesArrayDefective) {
  plat.configure_array(0, test::identity_genotype(), 0);
  const img::Image src = img::make_scene(32, 32, 5);
  const img::Image healthy = plat.filter_array(0, src);
  plat.inject_pe_fault(0, 0, 1);  // row 0 carries the output path
  EXPECT_TRUE(plat.has_pe_fault(0, 0, 1));
  const img::Image faulty = plat.filter_array(0, src);
  EXPECT_NE(healthy, faulty);
  // The decoded view marks the cell defective.
  EXPECT_TRUE(plat.decode_array(0).any_defective());
}

TEST_F(PlatformFixture, PeFaultSurvivesReconfigurationAndScrub) {
  plat.configure_array(0, test::identity_genotype(), 0);
  plat.inject_pe_fault(0, 0, 2);
  // Scrub: the dummy content *is* the intended plane now; nothing heals.
  std::size_t corrected = 0, uncorrectable = 0;
  plat.scrub_array(0, plat.now(), &corrected, &uncorrectable);
  EXPECT_TRUE(plat.decode_array(0).any_defective());
  // Reconfiguring the cell with a fresh genotype keeps the dummy (locked).
  Rng rng(6);
  plat.configure_array(0, evo::Genotype::random({4, 4}, rng), plat.now());
  EXPECT_TRUE(plat.decode_array(0).any_defective());
  // Until the damage is repaired explicitly.
  plat.clear_pe_fault(0, 0, 2);
  EXPECT_FALSE(plat.decode_array(0).any_defective());
}

TEST_F(PlatformFixture, SeuIsScrubbable) {
  plat.configure_array(1, test::identity_genotype(), 0);
  plat.inject_seu(1);
  EXPECT_GT(plat.config_memory().upset_word_count(), 0u);
  std::size_t corrected = 0, uncorrectable = 0;
  plat.scrub_array(1, plat.now(), &corrected, &uncorrectable);
  EXPECT_GE(corrected, 1u);
  EXPECT_EQ(uncorrectable, 0u);
  EXPECT_EQ(plat.config_memory().upset_word_count(), 0u);
  EXPECT_FALSE(plat.decode_array(1).any_defective());
}

TEST_F(PlatformFixture, LpdResistsScrub) {
  plat.configure_array(2, test::identity_genotype(), 0);
  plat.inject_lpd(2);
  std::size_t corrected = 0, uncorrectable = 0;
  plat.scrub_array(2, plat.now(), &corrected, &uncorrectable);
  EXPECT_EQ(uncorrectable, 1u);
  EXPECT_TRUE(plat.decode_array(2).any_defective());
}

TEST_F(PlatformFixture, FingerprintMatchesFullScanAfterEveryPath) {
  // configuration_fingerprint sees the words only through the memory's
  // running content hash (one block per array), so the hash equal to its
  // full scan on every array after every path means the fingerprint
  // equals the one a scan of the words gives.
  fpga::ConfigMemory& memory = plat.config_memory();
  Rng rng(21);
  std::vector<evo::Genotype> genes;
  for (std::size_t a = 0; a < 3; ++a) {
    genes.push_back(evo::Genotype::random({4, 4}, rng));
  }
  for (int step = 0; step < 400; ++step) {
    const std::size_t array = rng.below(3);
    const std::size_t row = rng.below(4);
    const std::size_t col = rng.below(4);
    switch (rng.below(6)) {
      case 0: {
        // A child a few cells away from what the array holds: the DPR
        // diff the engine writes.
        for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
          genes[array].set_function_gene(
              rng.below(16), static_cast<std::uint8_t>(rng.below(16)));
        }
        plat.configure_array(array, genes[array], plat.now());
        break;
      }
      case 1: static_cast<void>(plat.inject_seu(array)); break;
      case 2: static_cast<void>(plat.inject_lpd(array)); break;
      case 3: plat.scrub_array(array, plat.now()); break;
      case 4: plat.inject_pe_fault(array, row, col); break;
      default: plat.clear_pe_fault(array, row, col); break;
    }
    for (std::size_t a = 0; a < 3; ++a) {
      ASSERT_EQ(memory.content_hash(a), memory.scan_content_hash(a))
          << "array " << a << " after step " << step;
    }
  }
}

TEST(ConfigurationFingerprint, EqualContentAgreesAndDamageShows) {
  EvolvablePlatform a(test::small_platform_config(3));
  EvolvablePlatform b(test::small_platform_config(3));
  EXPECT_EQ(a.configuration_fingerprint(1), b.configuration_fingerprint(1));
  Rng rng(5);
  const evo::Genotype g = evo::Genotype::random({4, 4}, rng);
  // The same genotype reached through different histories agrees.
  a.configure_array(1, g);
  b.configure_array(1, evo::Genotype::random({4, 4}, rng));
  b.configure_array(1, g);
  const std::uint64_t healthy = a.configuration_fingerprint(1);
  EXPECT_EQ(b.configuration_fingerprint(1), healthy);
  // So does a platform of another size with the same shape.
  EvolvablePlatform c(test::small_platform_config(2));
  c.configure_array(1, g);
  EXPECT_EQ(c.configuration_fingerprint(1), healthy);
  // Position and register genes count.
  a.configure_array(2, g);
  EXPECT_NE(a.configuration_fingerprint(2), healthy);
  evo::Genotype tapped = g;
  tapped.set_tap_gene(0, static_cast<std::uint8_t>((g.tap_gene(0) + 1) % 9));
  b.configure_array(1, tapped);
  EXPECT_NE(b.configuration_fingerprint(1), healthy);
  b.configure_array(1, g);
  EXPECT_EQ(b.configuration_fingerprint(1), healthy);

  // A damaged twin differs. Scrubbing an SEU restores the healthy value;
  // an LPD survives the scrub.
  static_cast<void>(b.inject_seu(1));
  EXPECT_NE(b.configuration_fingerprint(1), healthy);
  b.scrub_array(1, b.now());
  EXPECT_EQ(b.configuration_fingerprint(1), healthy);
  static_cast<void>(b.inject_lpd(1));
  const std::uint64_t damaged = b.configuration_fingerprint(1);
  EXPECT_NE(damaged, healthy);
  b.scrub_array(1, b.now());
  EXPECT_EQ(b.configuration_fingerprint(1), damaged);
  // A dummy-PE lock differs until it is cleared.
  a.inject_pe_fault(1, 0, 0);
  EXPECT_NE(a.configuration_fingerprint(1), healthy);
  a.clear_pe_fault(1, 0, 0);
  EXPECT_EQ(a.configuration_fingerprint(1), healthy);
}

TEST_F(PlatformFixture, ParallelModeFiltersSameInput) {
  Rng rng(7);
  const evo::Genotype g = evo::Genotype::random({4, 4}, rng);
  for (std::size_t a = 0; a < 3; ++a) plat.configure_array(a, g, 0);
  const img::Image src = img::make_scene(24, 24, 8);
  const auto outs = plat.process_parallel(src);
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_EQ(outs[0], outs[1]);
  EXPECT_EQ(outs[1], outs[2]);
}

TEST_F(PlatformFixture, CascadeAppliesStagesInOrder) {
  Rng rng(8);
  const evo::Genotype g0 = evo::Genotype::random({4, 4}, rng);
  const evo::Genotype g1 = evo::Genotype::random({4, 4}, rng);
  const evo::Genotype g2 = evo::Genotype::random({4, 4}, rng);
  plat.configure_array(0, g0, 0);
  plat.configure_array(1, g1, 0);
  plat.configure_array(2, g2, 0);
  const img::Image src = img::make_scene(24, 24, 9);
  std::vector<img::Image> stages;
  const img::Image out = plat.process_cascade(src, &stages);
  ASSERT_EQ(stages.size(), 3u);
  const img::Image manual = evo::apply_genotype(
      g2, evo::apply_genotype(g1, evo::apply_genotype(g0, src)));
  EXPECT_EQ(out, manual);
  EXPECT_EQ(stages[2], manual);
}

TEST_F(PlatformFixture, BypassSkipsStageButKeepsStream) {
  Rng rng(9);
  const evo::Genotype g0 = evo::Genotype::random({4, 4}, rng);
  const evo::Genotype g2 = evo::Genotype::random({4, 4}, rng);
  plat.configure_array(0, g0, 0);
  plat.configure_array(1, test::identity_genotype(), 0);
  plat.configure_array(2, g2, 0);
  plat.acb(1).set_bypass(true);
  const img::Image src = img::make_scene(24, 24, 10);
  const img::Image out = plat.process_cascade(src);
  const img::Image manual =
      evo::apply_genotype(g2, evo::apply_genotype(g0, src));
  EXPECT_EQ(out, manual);
}

TEST_F(PlatformFixture, CascadeLatencyCountsActiveStages) {
  plat.configure_array(0, test::identity_genotype(), 0);
  plat.configure_array(1, test::identity_genotype(), 0);
  plat.configure_array(2, test::identity_genotype(), 0);
  const std::uint64_t full = plat.cascade_latency_cycles();
  plat.acb(1).set_bypass(true);
  const std::uint64_t bypassed = plat.cascade_latency_cycles();
  EXPECT_LT(bypassed, full);
  // Each active stage: 2*32+2 FIFO + 5 pipeline = 71 cycles.
  EXPECT_EQ(full, 3u * (2 * 32 + 2 + 5));
}

TEST_F(PlatformFixture, ResetTimeClearsTimelineAndStats) {
  Rng rng(10);
  plat.configure_array(0, evo::Genotype::random({4, 4}, rng), 0);
  EXPECT_GT(plat.now(), 0);
  plat.reset_time();
  EXPECT_EQ(plat.now(), 0);
  EXPECT_EQ(plat.engine_stats().pe_writes, 0u);
}

TEST_F(PlatformFixture, RegisterDrivenMuxAffectsDecode) {
  // Drive the tap registers directly over the bus, as the EA would.
  plat.configure_array(0, test::identity_genotype(), 0);
  plat.reg_write(RegisterFile::acb_reg(0, kRegInputTap0), 7);
  const pe::SystolicArray arr = plat.decode_array(0);
  EXPECT_EQ(arr.input_select(0), 7);
}

}  // namespace
}  // namespace ehw::platform
