// Tests for ehw/fpga: geometry addressing, the two-plane configuration
// memory and its running content hash, SEU/LPD fault semantics, and
// scrubbing.

#include <gtest/gtest.h>

#include "ehw/common/rng.hpp"
#include "ehw/fpga/bitstream.hpp"
#include "ehw/fpga/config_memory.hpp"
#include "ehw/fpga/ecc.hpp"
#include "ehw/fpga/fault.hpp"
#include "ehw/fpga/geometry.hpp"
#include "ehw/fpga/scrubber.hpp"

namespace ehw::fpga {
namespace {

FabricGeometry make_geometry(std::size_t arrays = 3) {
  return FabricGeometry(arrays, ArrayShape{4, 4});
}

TEST(Geometry, SlotIndexingRoundTrips) {
  const FabricGeometry g = make_geometry();
  std::size_t expected = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        const SlotAddress addr{a, r, c};
        EXPECT_EQ(g.slot_index(addr), expected);
        const std::size_t base = g.slot_word_base(addr);
        EXPECT_EQ(g.slot_of_word(base), addr);
        EXPECT_EQ(g.slot_of_word(base + g.words_per_slot() - 1), addr);
        ++expected;
      }
    }
  }
  EXPECT_EQ(g.total_slots(), 48u);
  EXPECT_EQ(g.total_words(), 48u * g.words_per_slot());
}

TEST(Geometry, RejectsOutOfRange) {
  const FabricGeometry g = make_geometry();
  EXPECT_THROW(static_cast<void>(g.slot_index({3, 0, 0})), std::logic_error);
  EXPECT_THROW(static_cast<void>(g.slot_index({0, 4, 0})), std::logic_error);
  EXPECT_THROW(static_cast<void>(g.slot_of_word(g.total_words())),
               std::logic_error);
}

TEST(Geometry, ClbFootprintMatchesPaper) {
  // 4x4 PEs x 10 CLBs + 16 cells of interconnect margin = 176 >= 160:
  // the layout constant the resource model reports separately is the
  // paper's 160-CLB clock region; geometry's own margin covers routing.
  const FabricGeometry g = make_geometry();
  EXPECT_EQ(g.layout().clbs_per_slot, 10u);
  EXPECT_GE(g.clbs_per_array(), 160u);
}

TEST(ConfigMemory, WriteThenRead) {
  ConfigMemory mem(16);
  mem.write(3, 0xDEADBEEF);
  EXPECT_EQ(mem.read(3), 0xDEADBEEFu);
  EXPECT_EQ(mem.read_intended(3), 0xDEADBEEFu);
  EXPECT_EQ(mem.upset_word_count(), 0u);
}

TEST(ConfigMemory, SeuDeviatesAndScrubRestores) {
  ConfigMemory mem(16);
  mem.write(5, 0xFFFF0000);
  mem.flip_bit(5, 0);
  EXPECT_EQ(mem.read(5), 0xFFFF0001u);
  EXPECT_EQ(mem.read_intended(5), 0xFFFF0000u);  // intent unchanged
  EXPECT_EQ(mem.upset_word_count(), 1u);
  EXPECT_TRUE(mem.rewrite(5));
  EXPECT_EQ(mem.read(5), 0xFFFF0000u);
  EXPECT_EQ(mem.upset_word_count(), 0u);
}

TEST(ConfigMemory, StuckBitDefeatsWrites) {
  ConfigMemory mem(16);
  mem.write(2, 0x0);
  mem.set_stuck_bit(2, 4, true);
  EXPECT_EQ(mem.read(2) & (1u << 4), 1u << 4);  // damage immediate
  mem.write(2, 0x0);                             // write cannot clear it
  EXPECT_EQ(mem.read(2), 1u << 4);
  EXPECT_EQ(mem.read_intended(2), 0u);
  mem.rewrite(2);  // scrub cannot clear it either
  EXPECT_EQ(mem.read(2), 1u << 4);
  EXPECT_EQ(mem.stuck_bit_count(), 1u);
  // Stuck deviation is not an "upset" (it is permanent damage).
  EXPECT_EQ(mem.upset_word_count(), 0u);
}

TEST(ConfigMemory, StuckAtZeroForcesZero) {
  ConfigMemory mem(8);
  mem.write(1, 0xFFFFFFFF);
  mem.set_stuck_bit(1, 31, false);
  EXPECT_EQ(mem.read(1), 0x7FFFFFFFu);
  mem.write(1, 0xFFFFFFFF);
  EXPECT_EQ(mem.read(1), 0x7FFFFFFFu);
  mem.clear_stuck_bit(1, 31);
  mem.write(1, 0xFFFFFFFF);
  EXPECT_EQ(mem.read(1), 0xFFFFFFFFu);
}

TEST(ConfigMemory, BoundsChecked) {
  ConfigMemory mem(4);
  EXPECT_THROW(static_cast<void>(mem.read(4)), std::logic_error);
  EXPECT_THROW(mem.write(9, 0), std::logic_error);
  EXPECT_THROW(mem.flip_bit(0, 32), std::logic_error);
}

void expect_hashes_match_scan(const ConfigMemory& mem, std::size_t blocks,
                              int step) {
  for (std::size_t b = 0; b < blocks; ++b) {
    ASSERT_EQ(mem.content_hash(b), mem.scan_content_hash(b))
        << "block " << b << " after step " << step;
  }
}

TEST(ConfigMemory, ContentHashTracksEveryMutator) {
  // Four 40-word blocks; small words and bits so that random mutations
  // often land on the same word, undo each other and revisit old states.
  constexpr std::size_t kBlock = 40;
  constexpr std::size_t kBlocks = 4;
  ConfigMemory mem(kBlock * kBlocks, kBlock);
  expect_hashes_match_scan(mem, kBlocks, -1);
  Rng rng(0xC0FF1E);
  for (int step = 0; step < 4000; ++step) {
    const std::size_t addr = rng.below(mem.size());
    const auto bit = static_cast<unsigned>(rng.below(4));
    switch (rng.below(5)) {
      case 0: mem.write(addr, static_cast<ConfigWord>(rng.below(16))); break;
      case 1: static_cast<void>(mem.rewrite(addr)); break;
      case 2: mem.flip_bit(addr, bit); break;
      case 3: mem.set_stuck_bit(addr, bit, rng.below(2) == 1); break;
      default: mem.clear_stuck_bit(addr, bit); break;
    }
    ASSERT_NO_FATAL_FAILURE(expect_hashes_match_scan(mem, kBlocks, step));
  }
  EXPECT_THROW(static_cast<void>(mem.content_hash(kBlocks)),
               std::logic_error);
  EXPECT_THROW(ConfigMemory(100, 40), std::logic_error);  // blocks must tile
}

TEST(ConfigMemory, ContentHashDependsOnContentOnly) {
  // Equal contents hash equal whatever the history and whichever block
  // holds them; a one-bit difference or a moved word does not.
  ConfigMemory a(80, 40);
  ConfigMemory b(80, 40);
  for (std::size_t i = 0; i < 40; ++i) {
    a.write(i, static_cast<ConfigWord>(i * 7));
    b.write(40 + i, static_cast<ConfigWord>(i * 7));
  }
  b.flip_bit(45, 3);
  b.flip_bit(45, 3);
  EXPECT_EQ(a.content_hash(0), b.content_hash(1));
  EXPECT_EQ(a.content_hash(1), b.content_hash(0));  // both blank
  EXPECT_NE(a.content_hash(0), a.content_hash(1));

  const std::uint64_t healthy = a.content_hash(0);
  a.flip_bit(12, 30);
  EXPECT_NE(a.content_hash(0), healthy);
  EXPECT_TRUE(a.rewrite(12));  // a scrub restores the healthy hash
  EXPECT_EQ(a.content_hash(0), healthy);

  a.write(1, 14);  // words 1 and 2 swap values: same multiset, moved
  a.write(2, 7);
  EXPECT_NE(a.content_hash(0), healthy);
  a.write(1, 7);
  a.write(2, 14);
  EXPECT_EQ(a.content_hash(0), healthy);

  a.set_stuck_bit(20, 0, true);  // 140 is even: the damage shows at once
  const std::uint64_t damaged = a.content_hash(0);
  EXPECT_NE(damaged, healthy);
  EXPECT_FALSE(a.rewrite(20));  // and no scrub clears it
  EXPECT_EQ(a.content_hash(0), damaged);
  a.clear_stuck_bit(20, 0);  // repair leaves the SRAM cell as it is...
  EXPECT_EQ(a.content_hash(0), damaged);
  EXPECT_TRUE(a.rewrite(20));  // ...until the next rewrite
  EXPECT_EQ(a.content_hash(0), healthy);
}

TEST(ConfigMemory, EccCorrectionRestoresTheContentHash) {
  const FabricGeometry g = make_geometry(2);
  ConfigMemory mem(g.total_words(),
                   g.slots_per_array() * g.words_per_slot());
  for (std::size_t i = 0; i < mem.size(); ++i) {
    mem.write(i, static_cast<ConfigWord>(i * 0x9E3779B9u));
  }
  FrameEcc ecc(g);
  ecc.resync_all(mem);
  const std::uint64_t healthy = mem.content_hash(1);
  const std::size_t word = g.slot_word_base({1, 2, 3}) + 5;
  mem.flip_bit(word, 17);
  EXPECT_NE(mem.content_hash(1), healthy);
  const EccFrameCheck check =
      ecc.check_and_correct_frame(mem, word / g.layout().words_per_frame);
  EXPECT_EQ(check.status, EccStatus::kCorrectedSingle);
  EXPECT_EQ(mem.content_hash(1), healthy);
  EXPECT_EQ(mem.content_hash(1), mem.scan_content_hash(1));
}

TEST(Bitstream, ReadbackMatchesWrites) {
  ConfigMemory mem(64);
  std::vector<ConfigWord> payload{1, 2, 3, 4};
  const PartialBitstream pbs("test", payload);
  write_payload(mem, 8, pbs);
  const PartialBitstream back = readback(mem, 8, 4);
  EXPECT_EQ(back, pbs);
  EXPECT_EQ(back.word_count(), 4u);
}

TEST(Bitstream, OutOfRangeRejected) {
  ConfigMemory mem(4);
  const PartialBitstream pbs("p", {1, 2, 3});
  EXPECT_THROW(write_payload(mem, 2, pbs), std::logic_error);
  EXPECT_THROW(readback(mem, 2, 3), std::logic_error);
}

TEST(FaultInjector, SeuJournalAndEffect) {
  const FabricGeometry g = make_geometry();
  ConfigMemory mem(g.total_words());
  FaultInjector inj(mem, g, 99);
  const FaultRecord rec = inj.inject_seu_in_slot({1, 2, 3});
  EXPECT_EQ(rec.kind, FaultKind::kSeu);
  EXPECT_EQ(rec.slot, (SlotAddress{1, 2, 3}));
  // The flip landed inside the slot's word range.
  const std::size_t base = g.slot_word_base({1, 2, 3});
  EXPECT_GE(rec.word, base);
  EXPECT_LT(rec.word, base + g.words_per_slot());
  EXPECT_EQ(mem.upset_word_count(), 1u);
  EXPECT_EQ(inj.journal().size(), 1u);
}

TEST(FaultInjector, LpdIsObservableImmediately) {
  const FabricGeometry g = make_geometry();
  ConfigMemory mem(g.total_words());
  FaultInjector inj(mem, g, 7);
  const FaultRecord rec = inj.inject_lpd_in_slot({0, 0, 0});
  EXPECT_EQ(rec.kind, FaultKind::kLpd);
  // Stuck value is the complement of what was there: the bit now differs
  // from intent.
  const bool bit = (mem.read(rec.word) >> rec.bit) & 1u;
  EXPECT_EQ(bit, rec.stuck_value);
  EXPECT_EQ(mem.stuck_bit_count(), 1u);
}

TEST(FaultInjector, DescribeMentionsLocation) {
  const FabricGeometry g = make_geometry();
  ConfigMemory mem(g.total_words());
  FaultInjector inj(mem, g, 7);
  const FaultRecord rec = inj.inject_seu_anywhere();
  const std::string s = FaultInjector::describe(rec);
  EXPECT_NE(s.find("SEU"), std::string::npos);
  EXPECT_NE(s.find("array="), std::string::npos);
}

TEST(Scrubber, CorrectsSeuReportsLpd) {
  const FabricGeometry g = make_geometry(1);
  ConfigMemory mem(g.total_words());
  // Give intent everywhere.
  for (std::size_t i = 0; i < mem.size(); ++i) mem.write(i, 0xA5A5A5A5);
  FaultInjector inj(mem, g, 3);
  inj.inject_seu_in_slot({0, 1, 1});
  inj.inject_lpd(g.slot_word_base({0, 2, 2}), 3, false);  // A5: bit3 is 0? A5 = 1010 0101 -> bit3=0

  Scrubber scrub(mem, g);
  const ScrubReport r = scrub.scrub_all();
  EXPECT_EQ(r.words_checked, g.total_words());
  EXPECT_EQ(r.words_corrected, 1u);  // the SEU
  // The LPD at bit3 stuck-0 where intent has 0 is masked (no deviation):
  // supported-fault behaviour depends on the configured pattern (§V).
  EXPECT_EQ(mem.upset_word_count(), 0u);
  EXPECT_GT(r.duration, 0);
}

TEST(Scrubber, ReportsUncorrectableWhenStuckDisagrees) {
  const FabricGeometry g = make_geometry(1);
  ConfigMemory mem(g.total_words());
  for (std::size_t i = 0; i < mem.size(); ++i) mem.write(i, 0x0);
  // Stuck-at-1 where intent wants 0: uncorrectable deviation.
  mem.set_stuck_bit(5, 7, true);
  Scrubber scrub(mem, g);
  const ScrubReport r = scrub.scrub_array(0);
  EXPECT_EQ(r.words_corrected, 0u);
  EXPECT_EQ(r.words_uncorrectable, 1u);
  EXPECT_TRUE(r.found_fault());
}

TEST(Scrubber, SlotScrubTouchesOnlySlot) {
  const FabricGeometry g = make_geometry(2);
  ConfigMemory mem(g.total_words());
  for (std::size_t i = 0; i < mem.size(); ++i) mem.write(i, 0xFF00FF00);
  // Upsets in two different slots.
  mem.flip_bit(g.slot_word_base({0, 0, 0}), 1);
  mem.flip_bit(g.slot_word_base({1, 3, 3}), 1);
  Scrubber scrub(mem, g);
  const ScrubReport r = scrub.scrub_slot({0, 0, 0});
  EXPECT_EQ(r.words_corrected, 1u);
  EXPECT_EQ(mem.upset_word_count(), 1u);  // the other slot still upset
}

}  // namespace
}  // namespace ehw::fpga
