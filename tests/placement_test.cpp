// Tests for the forwarder's placement policy: PlacementPolicy scoring
// (locality beats round-robin on repeat fingerprints, degraded targets
// are deprioritized, full targets spill).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ehw/sched/missions.hpp"
#include "ehw/sched/placement.hpp"

namespace ehw::sched {
namespace {

MissionSpec quick_spec(std::string name, std::uint64_t scene_seed) {
  MissionSpec spec;
  spec.kind = MissionKind::kDenoise;
  spec.name = std::move(name);
  spec.size = 16;
  spec.generations = 30;
  spec.scene_seed = scene_seed;
  return spec;
}

PlacementTarget idle_target(std::size_t arrays) {
  PlacementTarget target;
  target.total_arrays = arrays;
  target.free_arrays = arrays;
  return target;
}

// --- fingerprint ------------------------------------------------------------

TEST(PlacementPolicy, FingerprintTracksWarmStateNotIdentity) {
  const MissionSpec a = quick_spec("alpha", 7);
  MissionSpec b = quick_spec("beta", 7);
  // Same frames, same candidate stream, different mission name: the warm
  // state is shared, so the fingerprint must be too.
  EXPECT_EQ(PlacementPolicy::fingerprint(a), PlacementPolicy::fingerprint(b));

  b.scene_seed = 8;  // different frames -> different warm state
  EXPECT_NE(PlacementPolicy::fingerprint(a), PlacementPolicy::fingerprint(b));

  MissionSpec c = quick_spec("alpha", 7);
  c.seed = 99;  // different candidate stream
  EXPECT_NE(PlacementPolicy::fingerprint(a), PlacementPolicy::fingerprint(c));

  MissionSpec d = quick_spec("alpha", 7);
  d.priority = -3;  // scheduling detail, not warm-state content
  EXPECT_EQ(PlacementPolicy::fingerprint(a), PlacementPolicy::fingerprint(d));
}

// --- scoring ----------------------------------------------------------------

TEST(PlacementPolicy, RepeatFingerprintStaysOnItsWarmPool) {
  PlacementPolicy policy;
  const std::vector<PlacementTarget> targets{idle_target(4), idle_target(4)};

  const PlacementPolicy::Decision first = policy.place(42, 1, targets);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.affinity_hit);

  // A naive round-robin would alternate; locality must pin the repeat to
  // the pool that already holds the fingerprint's memo/cache entries.
  for (int repeat = 0; repeat < 4; ++repeat) {
    const PlacementPolicy::Decision again = policy.place(42, 1, targets);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.target, first.target);
    EXPECT_TRUE(again.affinity_hit);
  }
  const PlacementPolicy::Stats stats = policy.stats();
  EXPECT_EQ(stats.placed, 5u);
  EXPECT_EQ(stats.affinity_hits, 4u);
  EXPECT_EQ(stats.spills, 0u);
}

TEST(PlacementPolicy, ColdKeysSpreadAcrossEqualPools) {
  PlacementPolicy policy;
  std::vector<PlacementTarget> targets{idle_target(4), idle_target(4)};
  const PlacementPolicy::Decision first = policy.place(1, 2, targets);
  ASSERT_TRUE(first.ok);
  // Feed the decision back (as live quick_stats would): the busier pool
  // must lose the next cold placement.
  targets[first.target].free_arrays -= 2;
  targets[first.target].running += 1;
  const PlacementPolicy::Decision second = policy.place(2, 2, targets);
  ASSERT_TRUE(second.ok);
  EXPECT_NE(second.target, first.target);
}

TEST(PlacementPolicy, DegradedPoolsAreDeprioritized) {
  PlacementPolicy policy;
  PlacementTarget degraded = idle_target(4);
  degraded.quarantined = 2;
  degraded.free_arrays = 2;
  const std::vector<PlacementTarget> targets{degraded, idle_target(4)};
  const PlacementPolicy::Decision decision = policy.place(7, 1, targets);
  ASSERT_TRUE(decision.ok);
  EXPECT_EQ(decision.target, 1u);
}

TEST(PlacementPolicy, FullWarmPoolSpillsAndAffinityFollows) {
  PlacementPolicy policy;
  std::vector<PlacementTarget> targets{idle_target(4), idle_target(4)};
  const PlacementPolicy::Decision first = policy.place(9, 1, targets);
  ASSERT_TRUE(first.ok);

  // The warm pool is saturated: capacity overrides warmth.
  targets[first.target].free_arrays = 0;
  targets[first.target].running = 4;
  targets[first.target].queued = 6;
  const PlacementPolicy::Decision spilled = policy.place(9, 1, targets);
  ASSERT_TRUE(spilled.ok);
  EXPECT_NE(spilled.target, first.target);
  EXPECT_TRUE(spilled.spilled);

  // The affinity moved with the spill: once both pools are idle again
  // the fingerprint's home is the spill target.
  targets[first.target] = idle_target(4);
  const PlacementPolicy::Decision after = policy.place(9, 1, targets);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.target, spilled.target);
  EXPECT_TRUE(after.affinity_hit);
}

TEST(PlacementPolicy, UnreachableAndUndersizedTargetsAreSkipped) {
  PlacementPolicy policy;
  PlacementTarget down = idle_target(8);
  down.reachable = false;
  const std::vector<PlacementTarget> targets{down, idle_target(2)};

  // Only the small pool is eligible; a 2-lane mission fits it.
  const PlacementPolicy::Decision fits = policy.place(1, 2, targets);
  ASSERT_TRUE(fits.ok);
  EXPECT_EQ(fits.target, 1u);

  // 4 lanes can never fit 2 healthy arrays, and the big pool is down.
  const PlacementPolicy::Decision none = policy.place(2, 4, targets);
  EXPECT_FALSE(none.ok);
  EXPECT_FALSE(none.error.empty());
}

TEST(PlacementPolicy, ForgetTargetDropsItsAffinities) {
  PlacementPolicy policy;
  const std::vector<PlacementTarget> targets{idle_target(4), idle_target(4)};
  const PlacementPolicy::Decision first = policy.place(5, 1, targets);
  ASSERT_TRUE(first.ok);
  policy.forget_target(first.target);
  const PlacementPolicy::Decision again = policy.place(5, 1, targets);
  ASSERT_TRUE(again.ok);
  EXPECT_FALSE(again.affinity_hit);  // the corpse's warmth is gone
}

TEST(PlacementPolicy, ScoreArithmetic) {
  const PlacementTarget idle = idle_target(4);
  PlacementTarget busy = idle_target(4);
  busy.free_arrays = 1;
  busy.running = 3;

  // Warm-and-fits beats an equally idle cold pool.
  EXPECT_GT(PlacementPolicy::score(idle, 1, /*warm=*/true),
            PlacementPolicy::score(idle, 1, /*warm=*/false));
  // An idle cold pool beats a saturated warm one (spill incentive).
  PlacementTarget full = idle_target(4);
  full.free_arrays = 0;
  full.running = 4;
  full.queued = 4;
  EXPECT_GT(PlacementPolicy::score(idle, 1, /*warm=*/false),
            PlacementPolicy::score(full, 1, /*warm=*/true));
  // Quarantine damage outweighs mild load.
  PlacementTarget degraded = idle_target(4);
  degraded.quarantined = 2;
  degraded.free_arrays = 2;
  EXPECT_GT(PlacementPolicy::score(busy, 1, /*warm=*/false),
            PlacementPolicy::score(degraded, 1, /*warm=*/false));
}

}  // namespace
}  // namespace ehw::sched
