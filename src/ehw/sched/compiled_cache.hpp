#pragma once
// Genotype-keyed compiled-array cache shared by every mission on an
// ArrayPool. The key is EvolvablePlatform::configuration_fingerprint — a
// content hash of the genotype as materialized in configuration memory
// plus the defect map and ACB registers — mixed with the genotype's own
// hash. Every candidate is fingerprinted and looked up; a hit skips
// compilation. On the mission-service benchmark workloads the LRU does
// not hit (cache_hit_rate 0.0): every candidate is fingerprinted and
// compiled, and then the fitness memo answers the repeats.
// Values are shared_ptr<const CompiledArray>: CompiledArray evaluation is
// const and allocation-free, so one instance serves any number of
// concurrently evaluating missions; eviction only drops the cache's
// reference, never an array a wave is still streaming through.
//
// Storage, locking and counters are common/lru.hpp's LruCache:
// compilation runs OUTSIDE the lock so a slow compile never serializes
// unrelated missions, and when two threads compile the same key the first
// insert wins and both get it. Capacity 0 disables caching (every lookup
// compiles and counts a miss).

#include <cstdint>
#include <functional>
#include <memory>

#include "ehw/common/lru.hpp"
#include "ehw/pe/compiled.hpp"

namespace ehw::sched {

using CacheStats = LruStats;

class CompiledArrayCache
    : public LruCache<std::uint64_t, std::shared_ptr<const pe::CompiledArray>> {
 public:
  using LruCache::LruCache;

  using CompileFn = std::function<pe::CompiledArray()>;

  /// Returns the cached array for `key`, or compiles one via `compile`,
  /// inserts it (evicting the least-recently-used entry at capacity) and
  /// returns it. `was_hit` (optional) reports which path was taken.
  [[nodiscard]] std::shared_ptr<const pe::CompiledArray> get_or_compile(
      std::uint64_t key, const CompileFn& compile, bool* was_hit = nullptr) {
    return get_or_make(
        key,
        [&compile] {
          return std::make_shared<const pe::CompiledArray>(compile());
        },
        was_hit);
  }
};

}  // namespace ehw::sched
