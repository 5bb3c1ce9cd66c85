#include "ehw/sched/placement.hpp"

#include <bit>
#include <cstring>

#include "ehw/common/rng.hpp"

namespace ehw::sched {
namespace {

/// Exact bit pattern of a double (noise participates in the fingerprint
/// bit-for-bit, the same way it round-trips through manifests).
std::uint64_t double_bits(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

}  // namespace

std::uint64_t PlacementPolicy::fingerprint(const MissionSpec& spec) {
  // Every field that shapes the frame set (kind/size/scene_seed/noise +
  // the noise RNG's seed) or the candidate stream (ES parameters and
  // seed) — and lanes, because the per-lane genotype streams differ.
  std::uint64_t key = hash_mix(0x9E3779B97F4A7C15ULL,
                               static_cast<std::uint64_t>(spec.kind),
                               spec.size, spec.scene_seed);
  key = hash_mix(key, double_bits(spec.noise), spec.generations, spec.seed);
  key = hash_mix(key, spec.lambda, spec.mutation_rate, spec.lanes);
  key = hash_mix(key, spec.two_level ? 1 : 0, spec.merged_fitness ? 1 : 0,
                 spec.interleaved ? 1 : 0);
  return key;
}

double PlacementPolicy::score(const PlacementTarget& target, std::size_t lanes,
                              bool warm) {
  const double total = target.total_arrays == 0
                           ? 1.0
                           : static_cast<double>(target.total_arrays);
  const double free_frac = static_cast<double>(target.free_arrays) / total;
  const double load_frac =
      static_cast<double>(target.queued + target.running) / total;
  const double quarantined_frac =
      static_cast<double>(target.quarantined) / total;
  const bool fits_now = target.free_arrays >= lanes;
  // Capacity dominates among cold targets: an idle pool starts the
  // mission immediately (+100 band), a busy one queues it (sub-10 band).
  // Degraded pools are pushed down so fresh work prefers intact ones.
  double value = (fits_now ? 100.0 : 0.0) + 10.0 * free_frac -
                 4.0 * load_frac - 25.0 * quarantined_frac;
  if (warm) {
    // Warm state is worth waiting behind the pool's queue — but not
    // worth queueing when another pool could start NOW: +50 keeps a
    // fitting warm pool ahead of every cold one, +10 keeps a busy warm
    // pool ahead of equally busy cold ones while an idle cold pool
    // (+100 band) still wins and takes the affinity with it (spill).
    value += fits_now ? 50.0 : 10.0;
  }
  return value;
}

PlacementPolicy::Decision PlacementPolicy::place(
    std::uint64_t key, std::size_t lanes,
    const std::vector<PlacementTarget>& targets) {
  std::lock_guard lock(mutex_);
  Decision decision;
  std::size_t warm_target = targets.size();  // sentinel: no affinity
  std::size_t* const known = affinity_.find(key);
  if (known != nullptr) warm_target = *known;

  if (bound_.size() < targets.size()) bound_.resize(targets.size(), 0);
  bool found = false;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const PlacementTarget& target = targets[i];
    if (!target.reachable) continue;
    if (target.healthy() < lanes) continue;  // can never hold the lease
    const double value = score(target, lanes, i == warm_target);
    // Ties (identical capacity snapshots — common when submits are
    // sequential and each mission finishes before the next arrives) break
    // toward the target hosting the fewest warm fingerprints, so cold
    // keys spread their working sets instead of piling on index 0.
    if (!found || value > decision.score ||
        (value == decision.score && bound_[i] < bound_[decision.target])) {
      found = true;
      decision.target = i;
      decision.score = value;
    }
  }
  if (!found) {
    decision.error = "no reachable pool can host " + std::to_string(lanes) +
                     " lane(s)";
    return decision;
  }
  decision.ok = true;
  decision.affinity_hit = decision.target == warm_target;
  decision.spilled =
      warm_target != targets.size() && decision.target != warm_target;
  ++stats_.placed;
  if (decision.affinity_hit) ++stats_.affinity_hits;
  if (decision.spilled) ++stats_.spills;

  // Remember (or move) the fingerprint's home: the warm state now grows
  // wherever the mission actually runs.
  if (known != nullptr) {
    --bound_[*known];
    *known = decision.target;
  } else {
    affinity_.insert(key, decision.target,
                     [this](std::uint64_t, std::size_t evicted) {
                       --bound_[evicted];
                     });
  }
  ++bound_[decision.target];
  return decision;
}

bool PlacementPolicy::saturated(const std::vector<PlacementTarget>& targets,
                                std::size_t lanes) {
  for (const PlacementTarget& target : targets) {
    if (!target.reachable) continue;      // cold: can't take anything
    if (target.healthy() < lanes) continue;  // can never hold the lease
    // An empty queue means the next submit is at most one mission away
    // from lanes — running-at-capacity is busy, not saturated. Only a
    // target that already has work STACKED counts toward brownout.
    if (target.queued == 0) return false;
  }
  return true;
}

void PlacementPolicy::forget_target(std::size_t target) {
  std::lock_guard lock(mutex_);
  affinity_.erase_if(
      [target](std::uint64_t, std::size_t home) { return home == target; });
  if (target < bound_.size()) bound_[target] = 0;
}

PlacementPolicy::Stats PlacementPolicy::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace ehw::sched
