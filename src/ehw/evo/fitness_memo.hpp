#pragma once
// FitnessMemo — pool-wide fitness memoization.
//
// Evolutionary search revisits candidates constantly: neutral drift walks
// back over earlier genotypes, (1+lambda) waves duplicate mutations, and
// replayed/recovery missions re-evaluate entire populations. The fitness
// of a candidate is a pure function of (candidate configuration,
// evaluation frames), so identical candidates re-encountered on the same
// frame set — within one mission or across every mission sharing an
// ArrayPool — can skip frame streaming entirely.
//
// Key = hash_mix(frame-set id, candidate key):
//   * the frame-set id is a content hash over the (input, reference)
//     image pair (img::Image::content_hash), so it identifies WHAT is
//     being measured, independent of which mission asked;
//   * the candidate key is the platform configuration fingerprint mixed
//     with the genotype hash on the intrinsic path (defect map included —
//     a damaged candidate never shares an entry with its healthy twin),
//     or the genotype content hash on the extrinsic BatchEvaluator path.
// Keys are 64-bit content hashes: two distinct (candidate, frames) pairs
// collide with ~2^-64 probability, the same bound the compiled-array
// cache already accepts.
//
// Memoized values are exactly the fitnesses the evaluation engine would
// recompute (evaluation is deterministic), so memo-on and memo-off runs
// are bit-identical — the equivalence suite asserts this, concurrently.
//
// Storage is common/lru.hpp's LruCache over plain u64 -> Fitness
// entries: one mutex, and a lookup copies the 8-byte value out under it.
// Capacity 0 disables the memo (every lookup misses, nothing is stored).

#include <cstdint>

#include "ehw/common/lru.hpp"
#include "ehw/common/types.hpp"

namespace ehw::evo {

/// Hit/miss tally of one memoized wave (or an accumulation of many);
/// what per-mission counters are built from.
struct BatchMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

using FitnessMemoStats = LruStats;

/// Memoized fitness by key. snapshot() lists entries most recent first
/// for warm-state persistence (keys are content hashes, so a snapshot
/// taken by one daemon incarnation is valid for the next), and preload()
/// seeds a fresh memo from it.
class FitnessMemo : public LruCache<std::uint64_t, Fitness> {
 public:
  using LruCache::LruCache;

  /// True (and fills `fitness`) when `key` is memoized. Counts the
  /// hit/miss and refreshes LRU recency on hit.
  [[nodiscard]] bool lookup(std::uint64_t key, Fitness* fitness);
};

}  // namespace ehw::evo
