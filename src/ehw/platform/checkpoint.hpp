#pragma once
// Mission-level checkpointing. A MissionCheckpoint captures everything an
// intrinsic evolution run (plain or cascaded) needs to continue with
// bit-identical final results on a FRESH platform: the ES search state
// (evo::EsCheckpoint), the simulated-clock barrier at the generation
// boundary, the accumulated pe_writes/elapsed counters, and the genotype
// currently configured on each lane (so the DPR-diff reconfiguration
// stream — and therefore the timeline — replays exactly).
//
// The restore protocol the drivers implement:
//   1. configure each saved lane genotype at time 0 (full writes; their
//      cost is NOT charged to the mission — it was charged before the
//      checkpoint and is carried in `pe_writes`/`elapsed`);
//   2. reset the platform timeline and engine stats;
//   3. resume the generation loop at `next_generation` with the saved
//      absolute barrier and RNG state.
// Because every resource booking ends at or before the barrier at a
// generation boundary, the post-restore schedule depends only on the
// barrier value — the uninterrupted and the resumed run book identical
// intervals from there on.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ehw/common/json.hpp"
#include "ehw/common/types.hpp"
#include "ehw/evo/checkpoint.hpp"
#include "ehw/evo/genotype.hpp"
#include "ehw/sim/time.hpp"

namespace ehw::platform {

/// Per-stage search state of a cascaded mission (each stage keeps its own
/// parent and its own split RNG stream).
struct CascadeStageState {
  evo::Genotype parent;
  Fitness parent_fitness = kInvalidFitness;
  std::array<std::uint64_t, 4> rng_state{};
  /// The driver's staleness marker: the stage input moved since
  /// parent_fitness was measured. Kept separate from the fitness value —
  /// the sequential schedule's early-exit reads the (stale) fitness even
  /// while dirty, so collapsing the two would change results.
  bool dirty = true;
};

struct MissionCheckpoint {
  enum class Kind : std::uint8_t { kEvolve, kCascade };
  Kind kind = Kind::kEvolve;

  /// Absolute simulated time of the generation boundary (every booking
  /// ends at or before it).
  sim::SimTime barrier = 0;
  /// Simulated duration consumed before the checkpoint (accumulated
  /// across prior resumes).
  sim::SimTime elapsed = 0;
  /// DPR writes performed before the checkpoint (same accumulation).
  std::uint64_t pe_writes = 0;
  /// Genotype configured on each lane at the boundary (slot i = lane i of
  /// the mission's slice); nullopt when the lane was never configured.
  std::vector<std::optional<evo::Genotype>> lane_genotypes;

  /// kEvolve: the single ES stream.
  evo::EsCheckpoint es;

  /// kCascade: one search state per stage, plus the loop cursors — the
  /// next (stage, generation) pair the schedule loop will execute.
  std::vector<CascadeStageState> stages;
  std::size_t next_stage = 0;
  Generation next_generation = 1;
};

/// How a driver should checkpoint. Default-constructed = no checkpointing
/// (the historical behaviour, byte-for-byte).
struct CheckpointPolicy {
  /// Emit a checkpoint every N generations (0 = never). For cascades the
  /// unit is one stage-generation step.
  Generation every = 0;
  /// Receives each checkpoint; invoked synchronously at the boundary.
  std::function<void(const MissionCheckpoint&)> sink;
  /// When set, the driver restores from this state instead of starting
  /// fresh.
  const MissionCheckpoint* resume = nullptr;
  /// Preempt the run after this many generations/steps executed since
  /// (re)start (0 = run to completion): a final checkpoint is emitted and
  /// the driver returns its partial result. This is how a mission is
  /// migrated off its slice without killing the process.
  Generation preempt_after = 0;
  /// Asynchronous preemption: polled at every generation boundary; when
  /// it returns true the driver emits a final checkpoint (sink set) and
  /// returns its partial result with `preempted` set. This is how the
  /// scheduler pulls a running mission off a quarantined slice. The
  /// scheduler's poll also throws from here to cancel the mission.
  std::function<bool()> should_preempt;

  [[nodiscard]] bool active() const noexcept {
    return every != 0 || resume != nullptr || preempt_after != 0 ||
           static_cast<bool>(sink) || static_cast<bool>(should_preempt);
  }
};

/// JSON round trip; format tag "mpa-ckpt-v1". 64-bit fields travel as
/// decimal strings, RNG words as 16-hex, genotypes as MPA1 lines.
[[nodiscard]] Json mission_checkpoint_to_json(const MissionCheckpoint& ckpt);

/// Returns "" on success, else a description of the first bad field.
[[nodiscard]] std::string mission_checkpoint_from_json(const Json& json,
                                                       MissionCheckpoint& out);

}  // namespace ehw::platform
