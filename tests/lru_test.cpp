// Tests for common/lru.hpp, the one bounded LRU behind the fitness memo,
// the compiled-array cache, the mission-frame cache and the placement
// affinity table: recency and eviction order, refresh on hit, the
// capacity-0 off switch, erase_if, snapshot/preload order and one shared
// value from concurrent get_or_make calls on one key.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "ehw/common/lru.hpp"

namespace ehw {
namespace {

using Entries = std::vector<std::pair<int, int>>;

/// The map's entries, most recent first.
Entries entries_of(const LruMap<int, int>& map) {
  Entries entries;
  map.for_each([&entries](int key, int value) {
    entries.emplace_back(key, value);
  });
  return entries;
}

TEST(LruMap, EvictsLeastRecentFirstThroughTheCallback) {
  LruMap<int, int> map(3);
  Entries evicted;
  const auto on_evict = [&evicted](int key, int value) {
    evicted.emplace_back(key, value);
  };
  for (int key = 1; key <= 3; ++key) map.insert(key, 10 * key, on_evict);
  EXPECT_EQ(entries_of(map), (Entries{{3, 30}, {2, 20}, {1, 10}}));
  EXPECT_TRUE(evicted.empty());

  map.insert(4, 40, on_evict);  // full: 1 is the least recent
  map.insert(5, 50, on_evict);  // then 2
  EXPECT_EQ(evicted, (Entries{{1, 10}, {2, 20}}));
  EXPECT_EQ(entries_of(map), (Entries{{5, 50}, {4, 40}, {3, 30}}));
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.find(1), nullptr);
  EXPECT_EQ(map.find(2), nullptr);
}

TEST(LruMap, FindAndInsertRefreshAndTheFirstInsertWins) {
  LruMap<int, int> map(3);
  for (int key = 1; key <= 3; ++key) map.insert(key, 10 * key);

  int* one = map.find(1);  // hit: 1 becomes most recent
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(*one, 10);
  EXPECT_EQ(entries_of(map), (Entries{{1, 10}, {3, 30}, {2, 20}}));

  // Inserting a present key refreshes it and keeps its value.
  EXPECT_EQ(*map.insert(2, 99), 20);
  EXPECT_EQ(entries_of(map), (Entries{{2, 20}, {1, 10}, {3, 30}}));

  // The value is writable in place, and the next eviction takes 3.
  *map.find(1) = 11;
  Entries evicted;
  map.insert(4, 40, [&evicted](int key, int value) {
    evicted.emplace_back(key, value);
  });
  EXPECT_EQ(evicted, (Entries{{3, 30}}));
  EXPECT_EQ(entries_of(map), (Entries{{4, 40}, {1, 11}, {2, 20}}));
}

TEST(LruMap, CapacityZeroHoldsNothing) {
  LruMap<int, int> map(0);
  bool evicted = false;
  EXPECT_EQ(map.insert(1, 10, [&evicted](int, int) { evicted = true; }),
            nullptr);
  EXPECT_EQ(map.find(1), nullptr);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_FALSE(evicted);
}

TEST(LruMap, EraseIfRemovesMatchesAndKeepsTheRestsOrder) {
  LruMap<int, int> map(5);
  for (int key = 1; key <= 5; ++key) map.insert(key, key % 2);
  map.erase_if([](int, int value) { return value == 1; });  // odd keys
  EXPECT_EQ(entries_of(map), (Entries{{4, 0}, {2, 0}}));
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.find(3), nullptr);
  // The freed room takes new entries without evicting.
  bool evicted = false;
  for (int key = 6; key <= 8; ++key) {
    map.insert(key, 0, [&evicted](int, int) { evicted = true; });
  }
  EXPECT_FALSE(evicted);
  EXPECT_EQ(map.size(), 5u);
}

TEST(LruCache, CountsHitsMissesAndEvictions) {
  LruCache<int, int> cache(2);
  int value = 0;
  EXPECT_FALSE(cache.lookup(1, &value));
  cache.store(1, 10);
  cache.store(2, 20);
  EXPECT_TRUE(cache.lookup(1, &value));  // 1 becomes most recent
  EXPECT_EQ(value, 10);
  cache.store(3, 30);  // evicts 2
  EXPECT_FALSE(cache.lookup(2, &value));
  cache.store(1, 99);  // refresh: 1 keeps 10
  EXPECT_TRUE(cache.lookup(1, &value));
  EXPECT_EQ(value, 10);

  const LruStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCache, CapacityZeroStoresNothingAndCountsMisses) {
  LruCache<int, int> cache(0);
  cache.store(1, 10);
  int value = 0;
  EXPECT_FALSE(cache.lookup(1, &value));
  int builds = 0;
  bool hit = true;
  EXPECT_EQ(cache.get_or_make(1, [&builds] { return ++builds; }, &hit), 1);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.get_or_make(1, [&builds] { return ++builds; }), 2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.snapshot().empty());
  const LruStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(LruCache, SnapshotThenPreloadKeepsRecencyAndCountsNothing) {
  LruCache<int, int> source(4);
  for (int key = 1; key <= 4; ++key) source.store(key, 10 * key);
  int value = 0;
  ASSERT_TRUE(source.lookup(2, &value));
  const Entries snapshot = source.snapshot();
  EXPECT_EQ(snapshot, (Entries{{2, 20}, {4, 40}, {3, 30}, {1, 10}}));

  // Same capacity: the same entries in the same order.
  LruCache<int, int> same(4);
  same.preload(snapshot);
  EXPECT_EQ(same.snapshot(), snapshot);

  // Smaller: the most recent entries survive, still in order.
  LruCache<int, int> smaller(2);
  smaller.preload(snapshot);
  EXPECT_EQ(smaller.snapshot(), (Entries{{2, 20}, {4, 40}}));
  const LruStats stats = smaller.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);

  LruCache<int, int> off(0);
  off.preload(snapshot);
  EXPECT_EQ(off.size(), 0u);
}

TEST(LruCache, ConcurrentGetOrMakeOnOneKeySharesOneInstance) {
  LruCache<int, std::shared_ptr<const int>> cache(4);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      got[t] = cache.get_or_make(7, [&builds, t] {
        ++builds;
        return std::make_shared<const int>(t);
      });
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_NE(got[0], nullptr);
  for (const auto& value : got) EXPECT_EQ(value.get(), got[0].get());
  EXPECT_GE(builds.load(), 1);
  EXPECT_EQ(cache.size(), 1u);
  const LruStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(builds.load()));
}

}  // namespace
}  // namespace ehw
