#include "ehw/fpga/config_memory.hpp"

#include <algorithm>
#include <bit>

#include "ehw/common/rng.hpp"

namespace ehw::fpga {

namespace {

/// One word's share of its block's hash. (offset, value) packs into 64
/// bits without loss and splitmix64 is a bijection, so two different
/// values at one offset never share a term.
std::uint64_t word_term(std::size_t offset, ConfigWord value) noexcept {
  std::uint64_t key = static_cast<std::uint64_t>(offset) << 32 | value;
  return splitmix64(key);
}

}  // namespace

ConfigMemory::ConfigMemory(std::size_t words, std::size_t block_words)
    : actual_(words, 0),
      intended_(words, 0),
      stuck_mask_(words, 0),
      stuck_value_(words, 0),
      block_words_(block_words) {
  EHW_REQUIRE(words > 0, "config memory must not be empty");
  EHW_REQUIRE(block_words > 0 && words % block_words == 0 &&
                  block_words <= (std::size_t{1} << 32),
              "hash blocks must tile the memory");
  // Every block starts all-zero, so every block starts with block 0's hash.
  block_hash_.assign(words / block_words, 0);
  std::fill(block_hash_.begin(), block_hash_.end(), scan_content_hash(0));
}

ConfigWord ConfigMemory::read(std::size_t addr) const {
  check(addr);
  return actual_[addr];
}

ConfigWord ConfigMemory::read_intended(std::size_t addr) const {
  check(addr);
  return intended_[addr];
}

void ConfigMemory::store(std::size_t addr, ConfigWord value) noexcept {
  const ConfigWord old = actual_[addr];
  if (old == value) return;
  const std::size_t block = addr / block_words_;
  const std::size_t offset = addr - block * block_words_;
  block_hash_[block] += word_term(offset, value) - word_term(offset, old);
  actual_[addr] = value;
}

void ConfigMemory::write(std::size_t addr, ConfigWord value) {
  check(addr);
  intended_[addr] = value;
  store(addr, apply_stuck(addr, value));
}

bool ConfigMemory::rewrite(std::size_t addr) {
  check(addr);
  const ConfigWord fresh = apply_stuck(addr, intended_[addr]);
  const bool changed = fresh != actual_[addr];
  store(addr, fresh);
  return changed;
}

void ConfigMemory::flip_bit(std::size_t addr, unsigned bit) {
  check(addr);
  EHW_REQUIRE(bit < 32, "bit index out of range");
  store(addr, actual_[addr] ^ (ConfigWord{1} << bit));
}

void ConfigMemory::set_stuck_bit(std::size_t addr, unsigned bit,
                                 bool stuck_value) {
  check(addr);
  EHW_REQUIRE(bit < 32, "bit index out of range");
  const ConfigWord m = ConfigWord{1} << bit;
  stuck_mask_[addr] |= m;
  if (stuck_value) {
    stuck_value_[addr] |= m;
  } else {
    stuck_value_[addr] &= ~m;
  }
  // The damage takes effect immediately on the SRAM cell.
  store(addr, apply_stuck(addr, actual_[addr]));
}

void ConfigMemory::clear_stuck_bit(std::size_t addr, unsigned bit) {
  check(addr);
  EHW_REQUIRE(bit < 32, "bit index out of range");
  const ConfigWord m = ConfigWord{1} << bit;
  stuck_mask_[addr] &= ~m;
  stuck_value_[addr] &= ~m;
}

ConfigWord ConfigMemory::stuck_mask(std::size_t addr) const {
  check(addr);
  return stuck_mask_[addr];
}

std::size_t ConfigMemory::upset_word_count() const noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < actual_.size(); ++i) {
    // A word counts as upset when actual deviates from what a fresh write
    // of the intended value would produce (stuck bits are not "upsets").
    if (actual_[i] != apply_stuck(i, intended_[i])) ++n;
  }
  return n;
}

std::size_t ConfigMemory::stuck_bit_count() const noexcept {
  std::size_t n = 0;
  for (ConfigWord m : stuck_mask_) n += std::popcount(m);
  return n;
}

std::uint64_t ConfigMemory::content_hash(std::size_t block) const {
  EHW_REQUIRE(block < block_hash_.size(), "hash block out of range");
  return block_hash_[block];
}

std::uint64_t ConfigMemory::scan_content_hash(std::size_t block) const {
  EHW_REQUIRE(block < block_hash_.size(), "hash block out of range");
  const std::size_t base = block * block_words_;
  std::uint64_t hash = 0;
  for (std::size_t offset = 0; offset < block_words_; ++offset) {
    hash += word_term(offset, actual_[base + offset]);
  }
  return hash;
}

}  // namespace ehw::fpga
