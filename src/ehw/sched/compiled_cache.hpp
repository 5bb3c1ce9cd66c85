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
// Thread safety: the index is mutex-guarded; compilation runs OUTSIDE the
// lock so a slow compile never serializes unrelated missions. Two threads
// missing the same key may both compile — the first insert wins and the
// loser adopts it, keeping every caller behaviourally identical.

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "ehw/pe/compiled.hpp"

namespace ehw::sched {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class CompiledArrayCache {
 public:
  /// `capacity` is the entry cap (LRU eviction beyond it); 0 disables
  /// caching entirely (every lookup compiles and counts a miss).
  explicit CompiledArrayCache(std::size_t capacity) : capacity_(capacity) {}

  CompiledArrayCache(const CompiledArrayCache&) = delete;
  CompiledArrayCache& operator=(const CompiledArrayCache&) = delete;

  using CompileFn = std::function<pe::CompiledArray()>;

  /// Returns the cached array for `key`, or compiles one via `compile`,
  /// inserts it (evicting the least-recently-used entry at capacity) and
  /// returns it. `was_hit` (optional) reports which path was taken.
  [[nodiscard]] std::shared_ptr<const pe::CompiledArray> get_or_compile(
      std::uint64_t key, const CompileFn& compile, bool* was_hit = nullptr);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] CacheStats stats() const;
  void clear();

 private:
  struct Entry {
    std::shared_ptr<const pe::CompiledArray> value;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, Entry> index_;
  CacheStats stats_;
};

}  // namespace ehw::sched
