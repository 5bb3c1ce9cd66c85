#pragma once
// The one bounded least-recently-used table behind all warm state.
//
// The system turns repeated work into speed with four bounded tables:
// the fitness memo (evo::FitnessMemo), the compiled-array cache
// (sched::CompiledArrayCache), the mission-frame cache
// (sched::MissionImagesCache) and the forwarder's fingerprint affinity
// table (sched::PlacementPolicy). They differ in key, value and locking,
// not in the algorithm, so the recency list, the hash index over it and
// the eviction rule live here once:
//
//   * LruMap — unsynchronized. Its owner supplies the lock (the placement
//     policy scores targets and updates the table under one mutex).
//   * LruCache — LruMap behind a mutex, with one LruStats tally and the
//     build-outside-the-lock get_or_make the caches share.
//
// Capacity 0 is the only off switch: such a table holds nothing, every
// lookup misses (and an LruCache counts the miss), and callers need no
// second, nullptr-based way to turn a table off.
//
// Keys are compared exactly with ==; the hash only picks the bucket.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ehw {

/// Hit/miss/eviction tally of an LruCache.
struct LruStats {
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

/// Eviction callback that ignores the evicted entry.
struct LruIgnoreEvicted {
  template <typename K, typename V>
  void operator()(const K& /*key*/, const V& /*value*/) const noexcept {}
};

/// Bounded LRU map, not synchronized.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity) : capacity_(capacity) {}

  /// The entry's value, made most recent; nullptr when absent.
  [[nodiscard]] Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Makes `key` most recent. An absent key is inserted with `value`; a
  /// present one keeps its value (the first insert wins). When the map
  /// is full the least recent entry is handed to `on_evict(key, value)`
  /// and its nodes are reused for the new one. Returns the entry's
  /// value, or nullptr when the capacity is 0.
  template <typename OnEvict = LruIgnoreEvicted>
  Value* insert(const Key& key, Value value, OnEvict on_evict = {}) {
    if (Value* found = find(key)) return found;
    if (capacity_ == 0) return nullptr;
    if (index_.size() < capacity_) {
      // Built aside and spliced in (which cannot throw), so a failed
      // allocation leaves the map as it was.
      Order entry;
      entry.emplace_front(key, std::move(value));
      index_.emplace(key, entry.begin());
      order_.splice(order_.begin(), entry);
      return &order_.front().second;
    }
    const auto last = std::prev(order_.end());
    on_evict(std::as_const(last->first), std::as_const(last->second));
    auto node = index_.extract(last->first);
    last->first = key;
    last->second = std::move(value);
    order_.splice(order_.begin(), order_, last);
    node.key() = key;
    index_.insert(std::move(node));
    return &last->second;
  }

  /// Removes every entry for which `pred(key, value)` holds.
  template <typename Pred>
  void erase_if(Pred pred) {
    for (auto it = order_.begin(); it != order_.end();) {
      if (pred(std::as_const(it->first), std::as_const(it->second))) {
        index_.erase(it->first);
        it = order_.erase(it);
      } else {
        ++it;
      }
    }
  }

  /// Calls `visit(key, value)` on every entry, most recent first.
  template <typename Visit>
  void for_each(Visit visit) const {
    for (const auto& [key, value] : order_) visit(key, value);
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }

 private:
  using Order = std::list<std::pair<Key, Value>>;
  std::size_t capacity_;
  Order order_;  // front = most recently used
  std::unordered_map<Key, typename Order::iterator, Hash> index_;
};

/// Thread-safe LruMap: one mutex, one LruStats tally.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : map_(capacity) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// True (and copies the value to `*value`) when `key` is cached.
  /// Counts the hit or miss; a hit makes the entry most recent.
  [[nodiscard]] bool lookup(const Key& key, Value* value) {
    std::lock_guard lock(mutex_);
    const Value* found = map_.find(key);
    if (found == nullptr) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    *value = *found;
    return true;
  }

  /// Inserts `value` for an absent key, or refreshes a present one.
  void store(const Key& key, Value value) {
    std::lock_guard lock(mutex_);
    insert_locked(key, std::move(value));
  }

  /// The cached value for `key`, or `make()`'s. `make` runs outside the
  /// lock, so a slow build never stalls other keys. When racers build
  /// the same key, the first insert wins and every racer returns that
  /// value. `was_hit` (optional) reports which path was taken.
  template <typename Make>
  [[nodiscard]] Value get_or_make(const Key& key, Make&& make,
                                  bool* was_hit = nullptr) {
    Value value{};
    const bool hit = lookup(key, &value);
    if (was_hit != nullptr) *was_hit = hit;
    if (hit) return value;
    value = make();
    if (map_.capacity() == 0) return value;
    std::lock_guard lock(mutex_);
    return *insert_locked(key, std::move(value));
  }

  /// Every entry, most recent first (for persistence).
  [[nodiscard]] std::vector<std::pair<Key, Value>> snapshot() const {
    std::lock_guard lock(mutex_);
    std::vector<std::pair<Key, Value>> entries;
    entries.reserve(map_.size());
    map_.for_each([&entries](const Key& key, const Value& value) {
      entries.emplace_back(key, value);
    });
    return entries;
  }

  /// Seeds the cache from a snapshot. Inserted oldest first, so recency
  /// matches the snapshot's; the oldest entries beyond capacity are
  /// dropped. Counts no hits, misses or evictions.
  void preload(const std::vector<std::pair<Key, Value>>& entries) {
    std::lock_guard lock(mutex_);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      map_.insert(it->first, it->second);
    }
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return map_.size();
  }
  [[nodiscard]] LruStats stats() const {
    std::lock_guard lock(mutex_);
    return stats_;
  }

 private:
  Value* insert_locked(const Key& key, Value value) {
    return map_.insert(key, std::move(value), [this](const Key&, const Value&) {
      ++stats_.evictions;
    });
  }

  mutable std::mutex mutex_;
  LruMap<Key, Value, Hash> map_;
  LruStats stats_;
};

}  // namespace ehw
