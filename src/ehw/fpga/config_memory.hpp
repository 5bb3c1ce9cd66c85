#pragma once
// SRAM configuration memory model.
//
// Two planes are kept per word:
//   * `actual`   - what the SRAM cells currently hold (what the hardware
//                  decodes into circuit behaviour);
//   * `intended` - what the last deliberate write wanted (the golden image
//                  the scrubber compares against, exactly like scrubbing on
//                  the real device compares against the stored bitstream).
// Faults:
//   * SEU  = a bit flip in `actual` only. A scrub rewrite restores it.
//   * LPD  = stuck-at bits: a (mask, value) pair per word that every write
//            forces, so neither scrubbing nor reconfiguration can clear it.
// This is precisely the transient/permanent distinction of §II and §V.
//
// Content hash: the memory is split into equal blocks (the platform uses
// one block per array) and keeps a running hash of each block's `actual`
// words — the wrapping sum of a bijective mix of (offset in block, word).
// Every change to `actual` goes through one private store, so the four
// mutators that can change it — write, rewrite, flip_bit and
// set_stuck_bit — keep the hash in O(1) per changed word, whoever calls
// them (reconfiguration engine, fault injector, scrubber, ECC).
// clear_stuck_bit leaves `actual` alone and so the hash too.

#include <cstdint>
#include <vector>

#include "ehw/common/assert.hpp"

namespace ehw::fpga {

using ConfigWord = std::uint32_t;

class ConfigMemory {
 public:
  /// One content-hash block spanning the whole memory.
  explicit ConfigMemory(std::size_t words) : ConfigMemory(words, words) {}
  /// `block_words` must divide `words`; each block keeps its own hash.
  ConfigMemory(std::size_t words, std::size_t block_words);

  [[nodiscard]] std::size_t size() const noexcept { return actual_.size(); }

  /// The value hardware sees.
  [[nodiscard]] ConfigWord read(std::size_t addr) const;
  /// The value the last deliberate write intended (golden/scrub reference).
  [[nodiscard]] ConfigWord read_intended(std::size_t addr) const;

  /// Deliberate configuration write: records intent, then stores the value
  /// with stuck-at bits forced.
  void write(std::size_t addr, ConfigWord value);

  /// Re-applies the already-intended value (a scrub rewrite): clears SEUs,
  /// cannot clear stuck bits. Returns true if `actual` changed.
  bool rewrite(std::size_t addr);

  /// --- fault plane -------------------------------------------------------

  /// Flips one actual bit (Single Event Upset).
  void flip_bit(std::size_t addr, unsigned bit);

  /// Declares a stuck-at bit (Local Permanent Damage): the bit reads as
  /// `stuck_value` forever and writes cannot change it.
  void set_stuck_bit(std::size_t addr, unsigned bit, bool stuck_value);

  /// Removes a stuck-at bit (used by tests to model repair/replacement).
  void clear_stuck_bit(std::size_t addr, unsigned bit);

  [[nodiscard]] ConfigWord stuck_mask(std::size_t addr) const;

  /// Number of words whose actual value differs from intent (upset words).
  [[nodiscard]] std::size_t upset_word_count() const noexcept;

  /// Number of declared stuck bits over the whole memory.
  [[nodiscard]] std::size_t stuck_bit_count() const noexcept;

  /// --- content hash ------------------------------------------------------

  /// Running hash of block `block`'s actual words, O(1). Equal contents
  /// give equal hashes in any memory with the same block size.
  [[nodiscard]] std::uint64_t content_hash(std::size_t block) const;
  /// The same hash recomputed from every actual word of the block: the
  /// reference content_hash is checked against (Debug builds, tests).
  [[nodiscard]] std::uint64_t scan_content_hash(std::size_t block) const;

 private:
  void check(std::size_t addr) const {
    EHW_REQUIRE(addr < actual_.size(), "config address out of range");
  }
  [[nodiscard]] ConfigWord apply_stuck(std::size_t addr,
                                       ConfigWord v) const noexcept {
    return (v & ~stuck_mask_[addr]) | (stuck_value_[addr] & stuck_mask_[addr]);
  }
  /// The only writer of `actual_`: keeps the block hash in step.
  void store(std::size_t addr, ConfigWord value) noexcept;

  std::vector<ConfigWord> actual_;
  std::vector<ConfigWord> intended_;
  std::vector<ConfigWord> stuck_mask_;
  std::vector<ConfigWord> stuck_value_;
  std::size_t block_words_;
  std::vector<std::uint64_t> block_hash_;
};

}  // namespace ehw::fpga
