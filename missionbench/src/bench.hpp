#pragma once
// Shared declarations of the mission-service benchmark: the three
// workloads, their seeded mission generators, and the stack replay that
// times each layer's public calls.
//
// mission_bench.cpp only measures and records raw samples;
// every statistic (medians, tails, rates, shares) is reduced by
// missionbench/stats.py, so one tested implementation computes them.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ehw/common/json.hpp"
#include "ehw/sched/array_pool.hpp"
#include "ehw/sched/missions.hpp"

namespace mbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `origin` to `t`.
[[nodiscard]] inline double seconds_since(Clock::time_point origin,
                                          Clock::time_point t) {
  return std::chrono::duration<double>(t - origin).count();
}

struct Workload {
  std::string name;
  /// Open loop: submits go out on a seeded Poisson schedule from one
  /// connection and results are collected on others. Closed loop: each
  /// mission connection waits on its result before the next submit.
  bool open_loop = false;
  /// Closed loop: connections issuing missions. Open loop: result
  /// collectors (plus one submitting connection).
  std::size_t mission_connections = 1;
  /// Backend daemons behind a svc::Forwarder; 0 = one daemon, no front.
  std::size_t backends = 0;
  bool journaled = false;
  std::uint64_t checkpoint_every = 0;
  std::size_t max_inflight = 0;
  /// Open-loop arrival rate (missions per second), frozen.
  double rate_per_s = 0.0;
  /// The simulated metrics average over missions [0, sim_prefix) of the
  /// seeded sequence, so they repeat exactly for a seed.
  std::size_t sim_prefix = 1;
  /// Pool of each daemon (and of each stack-replay replica).
  ehw::sched::PoolConfig pool;
};

/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(const std::string& name);

/// Mission `index` of the workload's seeded sequence.
[[nodiscard]] ehw::sched::MissionSpec mission_spec(const Workload& workload,
                                                   std::uint64_t seed,
                                                   std::size_t index);

/// Missions run once before the timed window (part of set-up).
[[nodiscard]] std::vector<ehw::sched::MissionSpec> warmup_specs(
    const Workload& workload, std::uint64_t seed);

/// Open-loop due times (seconds from the window start), seeded Poisson
/// arrivals at workload.rate_per_s; empty for closed loops.
[[nodiscard]] std::vector<double> due_times(const Workload& workload,
                                            std::uint64_t seed,
                                            double seconds);

/// One mission the stack replay reruns: its spec, the sequence index, the
/// open-loop due time (closed loops: unused) and the result the service
/// returned for it, which the replay's outcome must equal bit for bit.
struct ReplayItem {
  ehw::sched::MissionSpec spec;
  std::size_t index = 0;
  double due_s = 0.0;
  ehw::Json service_result;
};

/// Reruns `items` through sched::ArrayPool::submit with timed job bodies
/// (after running `warmup` untimed, so caches match the service's), then
/// re-times a sample of memo-miss candidates on pe::CompiledArray.
/// Returns the raw per-layer samples and sums.
[[nodiscard]] ehw::Json stack_replay(
    const Workload& workload,
    const std::vector<ehw::sched::MissionSpec>& warmup,
    const std::vector<ReplayItem>& items);

/// The fields of a result payload that must be bit-identical between two
/// runs of one spec (status, fitness, genotype hash, simulated time,
/// cascade stage hashes).
[[nodiscard]] ehw::Json result_identity(const ehw::Json& result);

}  // namespace mbench
