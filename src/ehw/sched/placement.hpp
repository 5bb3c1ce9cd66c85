#pragma once
// PlacementPolicy — scores candidate targets (federated backend daemons)
// for a mission and remembers where each mission *fingerprint* last ran.
//
// svc::Forwarder places submits across its backends with this policy,
// fed by its stats/health polls. Two signals matter:
//
//   * free capacity — a target with idle arrays starts the mission now; a
//     busy one queues it. Quarantined lanes shrink a target's usable
//     capacity and push fresh work elsewhere.
//   * memo locality — each daemon's ArrayPool shares a FitnessMemo keyed
//     by frame-set content id and candidate. Every candidate of a repeat
//     mission is still configured, fingerprinted and compiled, but the
//     memo then answers it without streaming frames, and the pool's
//     mission-image cache skips scene synthesis. The policy keys that
//     warmth by a *fingerprint*: a content hash over every spec field
//     that determines the frame set and the candidate stream (kind,
//     size, scene seed, noise, ES parameters, seeds — NOT the mission
//     name), so repeat missions land where their warm memo lives.
//
// Warmth affects host speed only, never simulated results — the
// scheduler's bit-identity guarantee holds wherever a mission is placed,
// which is what makes this policy free to chase throughput.
//
// Determinism: scoring is pure arithmetic over the target snapshots; no
// randomness, no clocks. Ties break toward the target hosting the fewest
// warm fingerprints (then the lowest index), so cold keys spread their
// working sets across identical-looking targets instead of piling onto
// index 0. Thread-safe: one mutex covers scoring and the affinity table,
// a common/lru.hpp LruMap of the kAffinityCapacity most recently placed
// fingerprints.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ehw/common/lru.hpp"
#include "ehw/sched/missions.hpp"

namespace ehw::sched {

/// One candidate backend as the policy sees it: a cheap counter
/// snapshot from its last stats/health poll.
struct PlacementTarget {
  std::size_t total_arrays = 0;
  std::size_t free_arrays = 0;
  std::size_t quarantined = 0;
  /// Jobs admitted but not yet holding arrays.
  std::size_t queued = 0;
  std::size_t running = 0;
  /// Federation: the backend answered its last poll. Unreachable targets
  /// are never chosen.
  bool reachable = true;

  [[nodiscard]] std::size_t healthy() const noexcept {
    return total_arrays > quarantined ? total_arrays - quarantined : 0;
  }
};

class PlacementPolicy {
 public:
  /// Fingerprints the affinity table remembers (LRU eviction past it).
  static constexpr std::size_t kAffinityCapacity = 4096;

  PlacementPolicy() = default;
  PlacementPolicy(const PlacementPolicy&) = delete;
  PlacementPolicy& operator=(const PlacementPolicy&) = delete;

  /// Content fingerprint of the warm state a spec's mission builds:
  /// every field that shapes the frame set or the candidate stream.
  /// Identical fingerprints hit each other's memo entries; the mission
  /// name deliberately does not participate.
  [[nodiscard]] static std::uint64_t fingerprint(const MissionSpec& spec);

  struct Decision {
    bool ok = false;
    std::size_t target = 0;
    double score = 0.0;
    /// The chosen target is where this fingerprint last ran.
    bool affinity_hit = false;
    /// The fingerprint had a warm target but capacity pushed the mission
    /// elsewhere (the affinity moves with it).
    bool spilled = false;
    std::string error;  // when !ok
  };

  /// Picks the best target for a mission needing `lanes` arrays and
  /// records the placement against `key` (= fingerprint(spec)).
  /// Targets that are unreachable or whose healthy capacity cannot ever
  /// hold `lanes` are skipped; if nothing remains, ok=false.
  [[nodiscard]] Decision place(std::uint64_t key, std::size_t lanes,
                               const std::vector<PlacementTarget>& targets);

  /// Drops every affinity pointing at `target` (a backend died — its
  /// warm state is gone; do not steer repeats at the corpse).
  void forget_target(std::size_t target);

  struct Stats {
    std::uint64_t placed = 0;
    std::uint64_t affinity_hits = 0;
    std::uint64_t spills = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Score one target for a `lanes`-wide mission; `warm` marks the
  /// target as the fingerprint's remembered home. Exposed for tests and
  /// the placement micro-bench; place() is this plus argmax + recording.
  [[nodiscard]] static double score(const PlacementTarget& target,
                                    std::size_t lanes, bool warm);

  /// True when every target is unreachable (cold) or already has work
  /// STACKED in its queue (saturated) — a new `lanes`-wide mission could
  /// only land behind someone else's backlog. Running at capacity with
  /// an empty queue is busy, not saturated: those lanes free up on their
  /// own. Brownout admission sheds low-priority submits while this
  /// holds.
  [[nodiscard]] static bool saturated(
      const std::vector<PlacementTarget>& targets, std::size_t lanes);

 private:
  mutable std::mutex mutex_;
  /// fingerprint -> target index, most recently placed first.
  LruMap<std::uint64_t, std::size_t> affinity_{kAffinityCapacity};
  /// Warm fingerprints currently bound per target (tie-break metric);
  /// grown on demand to the largest target vector seen.
  std::vector<std::size_t> bound_;
  Stats stats_;
};

}  // namespace ehw::sched
