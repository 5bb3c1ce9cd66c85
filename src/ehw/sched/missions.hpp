#pragma once
// Standard mission kinds and the batch job manifest.
//
// A MissionSpec describes one self-contained workload over deterministic
// synthetic imagery (pure in its parameters, so pooled and standalone
// runs see identical inputs):
//   denoise     evolve a salt&pepper denoiser   (train: noisy, ref: clean)
//   edge        evolve an edge detector         (ref: Sobel magnitude)
//   morphology  evolve a dilation filter        (ref: 3x3 max / dilate)
//   cascade     collaborative cascaded evolution over `lanes` stages
//
// Manifest format (one job per line; '#' starts a comment):
//   <kind> <name> [key=value ...]
// keys: lanes, priority, generations, size, noise, rate, lambda, seed,
//       scene-seed, two-level, merged, interleaved, deadline-ms
// e.g.
//   denoise dn0 lanes=3 generations=300 noise=0.3 seed=5
//   cascade ca0 lanes=3 generations=80 interleaved=1
//
// The same spec runs as an ArrayPool job (make_job_body) or standalone on
// a dedicated platform (run_spec_standalone) — the determinism suite
// asserts the two produce bit-identical results.

#include <iosfwd>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "ehw/common/lru.hpp"
#include "ehw/sched/array_pool.hpp"

namespace ehw::sched {

enum class MissionKind : std::uint8_t {
  kDenoise,
  kEdge,
  kMorphology,
  kCascade,
};

[[nodiscard]] const char* kind_name(MissionKind kind) noexcept;

struct MissionSpec {
  MissionKind kind = MissionKind::kDenoise;
  std::string name = "mission";
  std::size_t lanes = 1;
  int priority = 0;
  /// Synthetic scene side length (images are size x size).
  std::size_t size = 32;
  std::uint64_t scene_seed = 7;
  /// Salt&pepper density for the noisy kinds.
  double noise = 0.3;
  Generation generations = 200;
  std::size_t lambda = 9;
  std::size_t mutation_rate = 3;
  bool two_level = false;
  std::uint64_t seed = 1;
  /// Cascade options (ignored by the other kinds).
  bool merged_fitness = false;
  bool interleaved = false;
  /// Host wall-clock deadline in milliseconds from admission (0 = none):
  /// a pooled job still running past it stops at its next generation
  /// boundary and is reported failed.
  std::uint64_t deadline_ms = 0;
};

/// True when `word` names a mission kind (and sets `kind`).
[[nodiscard]] bool parse_kind(const std::string& word,
                              MissionKind& kind) noexcept;

/// Applies one option from the manifest key vocabulary (lanes, priority,
/// generations, size, noise, rate, lambda, seed, scene-seed, two-level,
/// merged, interleaved, deadline-ms) to the spec. Returns "" on success, otherwise an
/// error message (unknown key, unparsable or out-of-range value). Shared
/// by the manifest parser and the svc submit payload so every entry point
/// speaks the same vocabulary with the same validation.
[[nodiscard]] std::string apply_spec_option(MissionSpec& spec,
                                            const std::string& key,
                                            const std::string& value);

/// Range-checks a fully built spec; "" when valid.
[[nodiscard]] std::string validate_spec(const MissionSpec& spec);

/// Parses a manifest; throws std::runtime_error naming the offending line
/// number on malformed input (unknown kinds/keys, bad or out-of-range
/// values, missing names, duplicate mission names) — nothing is ever
/// silently skipped.
[[nodiscard]] std::vector<MissionSpec> parse_manifest(std::istream& in);

/// The spec's train/reference image pair (deterministic).
struct MissionImages {
  img::Image train;
  img::Image reference;
};
[[nodiscard]] MissionImages make_mission_images(const MissionSpec& spec);

using MissionImagesCacheStats = LruStats;

/// Pool-local LRU over make_mission_images: frames are a pure function of
/// the frame-shaping spec fields (kind, size, scene seed, noise, seed),
/// so repeat fingerprints skip scene synthesis + degradation entirely —
/// the third kind of warm state (after the fitness memo and the compiled
/// cache) that placement affinity keeps co-located. Entries are shared
/// read-only snapshots; a hit serves bit-identical frames by
/// construction. Storage is common/lru.hpp's LruCache: synthesis runs
/// outside its lock, and capacity 0 disables the cache.
class MissionImagesCache {
 public:
  explicit MissionImagesCache(std::size_t capacity) : frames_(capacity) {}

  /// The spec's frames, from cache when warm (computing and inserting on
  /// miss). Never returns nullptr.
  [[nodiscard]] std::shared_ptr<const MissionImages> get_or_make(
      const MissionSpec& spec);

  [[nodiscard]] LruStats stats() const { return frames_.stats(); }

 private:
  /// Every field make_mission_images reads, compared exactly (noise by
  /// bit pattern); the hash only picks the bucket, so no collision risk.
  using Key = std::tuple<int, std::size_t, std::uint64_t, std::uint64_t,
                         std::uint64_t>;
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& key) const noexcept;
  };
  [[nodiscard]] static Key key_of(const MissionSpec& spec);

  LruCache<Key, std::shared_ptr<const MissionImages>, KeyHash> frames_;
};

/// Re-emits a spec as one manifest line ("<kind> <name> key=value ...",
/// every key explicit). parse_manifest of the line reproduces the spec
/// exactly; checkpoint files embed specs in this vocabulary so the sched
/// layer needs no knowledge of the service protocol.
[[nodiscard]] std::string spec_to_manifest_line(const MissionSpec& spec);

/// Parses one manifest line into `spec`. Returns "" on success, else the
/// parse error (never throws — callers are recovery paths).
[[nodiscard]] std::string spec_from_manifest_line(const std::string& line,
                                                  MissionSpec& spec);

/// Durability options for a mission run: checkpoint cadence/preemption
/// and an optional saved state to resume from (see
/// platform/checkpoint.hpp for the underlying policy semantics). The
/// shared_ptr keeps the resume state alive for the lifetime of a
/// deferred job body.
struct MissionCheckpointing {
  Generation every = 0;
  Generation preempt_after = 0;
  std::function<void(const platform::MissionCheckpoint&)> sink;
  std::shared_ptr<const platform::MissionCheckpoint> resume;
  /// Polled at generation boundaries; true asks the driver to emit a
  /// final checkpoint and stop (see CheckpointPolicy::should_preempt).
  std::function<bool()> should_preempt;

  [[nodiscard]] bool active() const noexcept {
    return every != 0 || preempt_after != 0 || resume != nullptr ||
           static_cast<bool>(sink) || static_cast<bool>(should_preempt);
  }
};

/// Pool submission helpers.
[[nodiscard]] JobConfig make_job_config(const MissionSpec& spec);
[[nodiscard]] ArrayPool::JobBody make_job_body(MissionSpec spec);
/// As above, but with durability: the body checkpoints per `ck` and
/// resumes from ck.resume when set.
[[nodiscard]] ArrayPool::JobBody make_job_body(MissionSpec spec,
                                               MissionCheckpointing ck);

/// Drives the spec through any wave executor (a pool lease or a direct
/// one); fills the outcome like the pool job body does (minus the cache
/// counters, which belong to the pool).
void run_spec(platform::WaveExecutor& executor, const MissionSpec& spec,
              JobOutcome& outcome);
/// Durable variant. `images` (optional) serves the mission's frames from
/// a shared cache — bit-identical to computing them fresh.
void run_spec(platform::WaveExecutor& executor, const MissionSpec& spec,
              JobOutcome& outcome, const MissionCheckpointing& ck,
              MissionImagesCache* images = nullptr);

/// Reference run on a dedicated standalone platform (the pre-scheduler
/// behaviour): the bit-identical baseline for multiplexed runs.
[[nodiscard]] JobOutcome run_spec_standalone(const MissionSpec& spec,
                                             ThreadPool* host_pool = nullptr);
/// Durable variant (used by `mpa checkpoint` / `mpa restore`).
[[nodiscard]] JobOutcome run_spec_standalone(const MissionSpec& spec,
                                             ThreadPool* host_pool,
                                             const MissionCheckpointing& ck);

}  // namespace ehw::sched
