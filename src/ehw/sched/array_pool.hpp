#pragma once
// ArrayPool — the multi-mission scheduler: one pool of N simulated
// processing arrays (with their reconfiguration engines) serving a stream
// of concurrent evolution/mission jobs.
//
// Placement model. Arrays are allocated to a job for its whole run, at
// job granularity: an admitted job leases `lanes` arrays, built as a
// dedicated EvolvablePlatform slice (own timeline, own engine, own
// configuration memory), and returns them on completion. This mirrors how
// a real MPA fabric would be shared — evolving candidates are *resident
// state* in the fabric, so time-multiplexing one array between two
// missions would cost a full array reconfiguration per swap
// (cells x kPeReconfigTime through the single engine) and destroy the
// Fig. 11 R/F overlap; statically partitioning array modules between
// concurrent jobs is the multiplexing a scheduler can actually win with
// (cf. FPGA-cluster EHW, arXiv:1412.5384). It is also what makes mission
// results BIT-IDENTICAL to standalone runs regardless of host
// interleaving: no simulated state is shared between jobs.
//
// What IS shared: the host execution core (job bodies run as tasks on
// ThreadPool::global(), max(2, hardware concurrency) workers — the pool
// owns no thread, and none is created or destroyed per job; candidate
// evaluation may additionally fan out over PoolConfig.host_pool), the
// compiled-array cache — keyed by configuration fingerprint (genotype +
// defect map); every candidate is fingerprinted and looked up there, and
// compiled on a miss, which on the benchmark workloads is every lookup —
// the fitness memo, which then skips frame streaming entirely for
// (candidate, frame-set) pairs any mission already measured, and the
// mission-frame cache. Cache and memo warmth affect host speed only,
// never simulated results.
//
// The pool always owns all three tables and hands every mission its
// cache and memo; each is a common/lru.hpp table, whose capacity 0 (from
// PoolConfig) is the only way to turn it off.
//
// Unit of work: the PR-2 wave protocol. Drivers hold a
// platform::WaveExecutor; the pool's MissionContext implements it by
// running evaluate_offspring_wave with the cache's compile hook, checking
// cancellation (and the job's own deadline) at wave boundaries and
// counting progress.
//
// Pool-level simulated time: each job's internal timeline starts at 0
// (exactly like a standalone run); the pool separately replays its own
// admission policy over the finished jobs' simulated durations to report
// a deterministic cluster schedule (who ran when on the shared arrays,
// makespan, missions per simulated second) that is independent of host
// thread interleaving. See simulated_schedule().

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "ehw/common/json.hpp"
#include "ehw/common/thread_pool.hpp"
#include "ehw/evo/fitness_memo.hpp"
#include "ehw/obs/trace.hpp"
#include "ehw/platform/cascade_evolution.hpp"
#include "ehw/platform/evolution_driver.hpp"
#include "ehw/platform/mission.hpp"
#include "ehw/platform/wave.hpp"
#include "ehw/sched/compiled_cache.hpp"
#include "ehw/sched/job_queue.hpp"

namespace ehw::sched {

struct PoolConfig {
  /// Arrays in the pool (the schedulable capacity).
  std::size_t num_arrays = 8;
  /// Line width every leased platform slice is built with; the rest of
  /// the fabric takes platform::PlatformConfig's defaults, as standalone
  /// runs do.
  std::size_t line_width = 128;
  /// Compiled-array cache entries shared by every mission (0 disables).
  std::size_t cache_capacity = 512;
  /// Fitness-memo entries shared by every mission (0 disables): identical
  /// candidates re-encountered on the same frame set — within or across
  /// missions — skip frame streaming entirely (see evo::FitnessMemo).
  std::size_t fitness_memo_capacity = 1 << 16;
  /// Mission image pairs kept warm per pool (0 disables): repeat specs
  /// skip scene synthesis + degradation (see MissionImagesCache). Frames
  /// are pure functions of the spec, so hits are bit-identical.
  std::size_t mission_images_capacity = 8;
  /// Host thread pool handed to each mission's platform for intra-wave
  /// candidate fan-out. nullptr keeps candidate evaluation
  /// single-threaded inside each mission — mission-level concurrency
  /// still comes from the job bodies running side by side on
  /// ThreadPool::global(). Must not be ThreadPool::global() itself (the
  /// constructor refuses it): bodies blocked on their own fan-out could
  /// hold every worker its chunks need.
  ThreadPool* host_pool = nullptr;
  /// Cap on simultaneously running jobs; 0 = bounded by arrays only.
  std::size_t max_concurrent_jobs = 0;
};

struct JobConfig {
  std::string name = "job";
  /// Arrays to lease (evaluation lanes); must be in [1, pool arrays].
  std::size_t lanes = 1;
  /// Higher admits earlier (see JobQueue for the fairness rules).
  int priority = 0;
  /// Wall-clock budget from admission (0 = none). The job checks it at
  /// each cancellation point (every wave and generation boundary); past
  /// it, the job expires there and finishes kFailed with a "deadline
  /// exceeded" error.
  std::uint64_t deadline_ms = 0;
};

enum class JobStatus : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  /// Stopped at a generation boundary by a preemption request (lane
  /// quarantine / migration); the job's latest checkpoint carries its
  /// state, and the submitter decides whether to resubmit it elsewhere.
  kPreempted,
};

/// Everything a finished job hands back. Which members are meaningful
/// depends on the job body (evolution jobs fill `intrinsic`, cascade jobs
/// `cascade`, mission-mode jobs `stats`); the pool itself fills the cache
/// counters in `stats` and `error` on failure.
struct JobOutcome {
  platform::IntrinsicResult intrinsic;
  platform::CascadeResult cascade;
  platform::MissionStats stats;
  std::string error;
  /// Host-time phase totals accumulated by the span guards while the job
  /// body ran, in first-seen order; empty when no instrumented phase
  /// fired. Plain totals, not a Json tree, because a daemon keeps every
  /// retained job's outcome (obs::profile_to_json renders them).
  /// Execution telemetry, not part of the bit-reproducible mission result.
  std::vector<obs::PhaseTotal> profile;
};

/// Thrown out of MissionContext wave/cancellation points after
/// MissionRunner::cancel(); the pool catches it and marks the job
/// kCancelled. Job bodies should let it propagate.
class MissionCancelled : public std::runtime_error {
 public:
  MissionCancelled() : std::runtime_error("mission cancelled") {}
};

/// Thrown by job bodies that stopped at a generation boundary in answer
/// to MissionRunner::request_preempt() (after emitting their checkpoint);
/// the pool catches it and marks the job kPreempted.
class MissionPreempted : public std::runtime_error {
 public:
  MissionPreempted() : std::runtime_error("mission preempted") {}
};

class ArrayPool;
class MissionImagesCache;  // missions.hpp (a layer above): pool-owned so
                           // every mission on the pool shares its frames

/// One observation of a job's life, delivered to MissionRunner
/// subscribers: a wave completed (kProgress) or the job left the running
/// set (kFinished, with the final status). Fired from the job's own
/// thread — subscribers must be thread-safe and cheap.
struct MissionEvent {
  enum class Kind : std::uint8_t { kProgress, kFinished };
  Kind kind = Kind::kProgress;
  /// Waves completed at the time of the event.
  std::uint64_t waves = 0;
  /// kRunning for progress events; the final status for kFinished.
  JobStatus status = JobStatus::kRunning;
};

/// Async handle to a submitted job: progress, cooperative cancellation
/// and the result future. Thread-safe; outlives the pool's job record.
class MissionRunner {
 public:
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] JobStatus status() const;

  /// Requests cooperative cancellation: the job stops at its next
  /// cancellation point (MissionContext::check_cancelled: every wave and,
  /// for pooled mission bodies, every generation boundary). No-op once
  /// the job finished.
  void cancel() noexcept { cancel_.store(true, std::memory_order_relaxed); }

  /// Requests cooperative preemption: the job body stops at its next
  /// GENERATION boundary (after emitting a checkpoint, when it has a
  /// sink) and finishes kPreempted. Unlike cancel(), the job's evolved
  /// state survives — the submitter can resume it on a different slice.
  void request_preempt() noexcept {
    preempt_.store(true, std::memory_order_relaxed);
  }
  [[nodiscard]] bool preempt_requested() const noexcept {
    return preempt_.load(std::memory_order_relaxed);
  }

  /// True once the job found its deadline passed at a cancellation
  /// point; such a job always finishes kFailed, not kCancelled.
  [[nodiscard]] bool deadline_exceeded() const noexcept {
    return deadline_exceeded_.load(std::memory_order_relaxed);
  }

  /// Blocks until the job left the running set (done/failed/cancelled).
  void wait() const;

  /// Waits, then returns the outcome (cache counters already merged).
  [[nodiscard]] const JobOutcome& result() const;

  /// Offspring waves completed so far (live progress).
  [[nodiscard]] std::uint64_t waves_completed() const noexcept {
    return waves_.load(std::memory_order_relaxed);
  }

  /// Registers an event observer: called on every completed wave and once
  /// with kFinished when the job leaves the running set. If the job
  /// already finished, the callback fires kFinished immediately on the
  /// calling thread (so late subscribers never miss completion). Progress
  /// callbacks run on the job's thread; they must not block it for long
  /// and must not call back into blocking MissionRunner methods.
  using EventCallback = std::function<void(const MissionEvent&)>;
  void subscribe(EventCallback callback);

  /// Simulated duration of the finished job (its platform's makespan).
  [[nodiscard]] sim::SimTime sim_duration() const;

 private:
  friend class ArrayPool;
  friend class MissionContext;

  explicit MissionRunner(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancel_.load(std::memory_order_relaxed);
  }
  /// Deadline path, called from the job's own check_cancelled: flags
  /// the deadline, then requests the cancellation that check throws.
  void expire() noexcept {
    deadline_exceeded_.store(true, std::memory_order_relaxed);
    cancel();
  }
  void finish(JobStatus status, JobOutcome outcome, sim::SimTime duration);
  /// Counts one completed wave and fires progress observers.
  void notify_wave();

  std::string name_;
  std::atomic<bool> cancel_{false};
  std::atomic<bool> preempt_{false};
  std::atomic<bool> deadline_exceeded_{false};
  std::atomic<std::uint64_t> waves_{0};
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  JobStatus status_ = JobStatus::kQueued;  // guarded by mutex_
  JobOutcome outcome_;                     // guarded until finished
  sim::SimTime sim_duration_ = 0;
  std::vector<EventCallback> observers_;  // guarded by mutex_; invoked
                                          // outside it (copied first)
};

/// The lease a running job body works through: implements WaveExecutor
/// over the job's platform slice, routing candidate compilation through
/// the pool's shared cache and honouring cancellation at wave boundaries.
class MissionContext final : public platform::WaveExecutor {
 public:
  [[nodiscard]] platform::EvolvablePlatform& platform() noexcept override {
    return *platform_;
  }
  [[nodiscard]] const std::vector<std::size_t>& lanes()
      const noexcept override {
    return lanes_;
  }
  platform::WaveOutcome run_wave(const std::vector<evo::Candidate>& offspring,
                                 const std::vector<std::size_t>& wave_lanes,
                                 const img::Image& input,
                                 const img::Image& compare,
                                 sim::SimTime barrier) override;

  /// Cooperative cancellation point: run_wave calls it first, pooled
  /// mission bodies at every generation boundary, and job bodies with
  /// long phases between waves may call it too. Expires the job once its
  /// deadline has passed, then throws MissionCancelled when cancel() was
  /// requested.
  void check_cancelled() const;

  [[nodiscard]] const JobConfig& job() const noexcept { return job_; }
  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept {
    return misses_;
  }
  [[nodiscard]] std::uint64_t memo_hits() const noexcept {
    return wave_memo_.stats.hits;
  }
  [[nodiscard]] std::uint64_t memo_misses() const noexcept {
    return wave_memo_.stats.misses;
  }

  /// True when the owning runner was asked to preempt; job bodies poll
  /// this at generation boundaries (via CheckpointPolicy.should_preempt).
  [[nodiscard]] bool preempt_requested() const noexcept;

  /// The pool's warm mission-frame cache.
  [[nodiscard]] MissionImagesCache& images_cache() noexcept;

 private:
  friend class ArrayPool;
  MissionContext(JobConfig job, ArrayPool& pool, CompiledArrayCache& cache,
                 evo::FitnessMemo& memo, MissionRunner& runner,
                 std::uint64_t job_id,
                 std::chrono::steady_clock::time_point deadline);

  [[nodiscard]] platform::CompiledLane compile_cached(std::size_t lane);

  JobConfig job_;
  std::unique_ptr<platform::EvolvablePlatform> platform_;
  std::vector<std::size_t> lanes_;
  ArrayPool& pool_;
  CompiledArrayCache& cache_;
  MissionRunner& runner_;
  std::uint64_t job_id_;
  /// Admission time + job_.deadline_ms; unread when deadline_ms is 0.
  std::chrono::steady_clock::time_point deadline_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  /// Shared memo + accumulated per-mission hit/miss tally; the frame-set
  /// id is refreshed per wave (cascade stages change frames mid-mission).
  platform::WaveMemo wave_memo_;
};

class ArrayPool {
 public:
  /// A job body: drive the mission through the context (the wave
  /// executor) and record results into the outcome.
  using JobBody = std::function<void(MissionContext&, JobOutcome&)>;

  explicit ArrayPool(PoolConfig config);
  ~ArrayPool();

  ArrayPool(const ArrayPool&) = delete;
  ArrayPool& operator=(const ArrayPool&) = delete;

  [[nodiscard]] const PoolConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t num_arrays() const noexcept {
    return config_.num_arrays;
  }

  /// Enqueues a job; it starts as soon as the admission policy grants it
  /// `job.lanes` arrays. Requires 1 <= lanes <= num_arrays.
  std::shared_ptr<MissionRunner> submit(JobConfig job, JobBody body);

  /// Blocks until every job submitted so far has finished.
  void wait_all();

  /// Releases the pool-side records of FINISHED jobs — job-body closures
  /// and the pool's reference to runner/outcome — so a long-running
  /// service that submits forever stays bounded (callers keep results
  /// alive through their own MissionRunner handles). Reaped jobs no
  /// longer appear in simulated_schedule(). Returns the number of
  /// records released.
  std::size_t reap_finished();

  // --- lane quarantine ----------------------------------------------------
  /// Takes array `id` out of the schedulable capacity. A free array is
  /// quarantined immediately; a leased one is flagged and its job is
  /// asked to preempt (it quarantines when the lease is released).
  /// Queued jobs whose lane demand can never fit the remaining healthy
  /// capacity are failed rather than left waiting forever.
  void quarantine_array(std::size_t id);

  /// Returns a quarantined array to service (or clears a pending
  /// quarantine on a leased one). False when `id` was already healthy.
  bool heal_array(std::size_t id);

  /// Arrays not quarantined (the degraded schedulable capacity).
  [[nodiscard]] std::size_t healthy_arrays() const;

  struct ArrayHealth {
    std::size_t id = 0;
    enum class State : std::uint8_t { kFree, kLeased, kQuarantined };
    State state = State::kFree;
    bool pending_quarantine = false;
    /// Name of the leasing job (kLeased only).
    std::string job;
  };
  [[nodiscard]] std::vector<ArrayHealth> array_health() const;

  /// Wave-boundary hook called from MissionContext::run_wave: when the
  /// lane-SEU fault site fires, one of the calling job's leased arrays is
  /// quarantined (which preempts that job at its next generation
  /// boundary).
  void poll_wave_faults(std::uint64_t job_id);

  /// Shared compiled-array cache traffic (all missions).
  [[nodiscard]] LruStats cache_stats() const { return cache_.stats(); }

  /// Shared fitness-memo traffic (all missions).
  [[nodiscard]] LruStats memo_stats() const { return memo_.stats(); }

  /// The pool's warm mission-frame cache.
  [[nodiscard]] MissionImagesCache& images_cache() noexcept {
    return *images_cache_;
  }

  // --- warm-state persistence ---------------------------------------------
  /// Serializes the shared fitness memo ("mpa-warm-v2"). Memo warmth
  /// affects host speed only, never simulated results, so this is purely
  /// a restart accelerator. The tag changes whenever the memo keys'
  /// values do, so a file of keys that could never hit is not preloaded
  /// into the LRU.
  [[nodiscard]] Json export_warm_state() const;

  struct WarmLoadStats {
    std::size_t memo_loaded = 0;
  };
  /// Rehydrates from a prior export: memo entries are preloaded verbatim
  /// (content-hash keyed), and `memo_loaded` is what the memo holds
  /// afterwards — at most its capacity. Any other format loads nothing.
  WarmLoadStats import_warm_state(const Json& state);

  /// Currently running + queued job counts (snapshot).
  [[nodiscard]] std::size_t jobs_in_flight() const;

  /// The pool's counters, for service /stats endpoints and operator
  /// tooling.
  struct PoolStats {
    std::size_t num_arrays = 0;
    std::size_t free_arrays = 0;
    std::size_t quarantined = 0;
    std::size_t running = 0;
    std::size_t queued = 0;
    std::uint64_t submitted = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t preempted = 0;
    std::uint64_t deadline_expired = 0;
    [[nodiscard]] std::size_t healthy() const noexcept {
      return num_arrays - quarantined;
    }
    [[nodiscard]] std::uint64_t finished() const noexcept {
      return done + failed + cancelled + preempted;
    }
  };

  /// Lock-free snapshot from atomic mirrors published at the end of every
  /// guarded state transition, so high-rate pollers (the daemon's stats
  /// op, which the forwarder polls, and `mpa stats`) never serialize
  /// against job bookkeeping under mutex_. Each counter is individually
  /// exact; while jobs run, the set is not one point in time. A job's
  /// counts are published before its runner finishes, so after
  /// MissionRunner::result() or wait_all() they include it.
  [[nodiscard]] PoolStats quick_stats() const noexcept;

  // --- pool-level simulated schedule -------------------------------------
  struct ScheduleEntry {
    std::string name;
    std::size_t lanes = 1;
    sim::SimTime start = 0;  // pool simulated time the job's arrays engage
    sim::SimTime end = 0;
  };
  struct ScheduleReport {
    std::vector<ScheduleEntry> jobs;  // submission order
    /// Pool makespan: when the last job's arrays free up.
    sim::SimTime makespan = 0;
    /// Sum of job durations = makespan of a one-job-at-a-time pool.
    sim::SimTime serialized = 0;
    [[nodiscard]] double speedup() const {
      return makespan == 0 ? 0.0
                           : static_cast<double>(serialized) /
                                 static_cast<double>(makespan);
    }
    [[nodiscard]] double missions_per_sim_second() const {
      return makespan == 0
                 ? 0.0
                 : static_cast<double>(jobs.size()) / sim::to_seconds(makespan);
    }
  };

  /// Waits for every submitted job, then deterministically replays the
  /// admission policy over their simulated durations: the cluster
  /// schedule the paper's fabric would execute on the whole batch,
  /// independent of host thread interleaving. This is the
  /// scheduler-throughput metric (missions per simulated second) tracked
  /// in the bench suite. Note it is the policy's *plan* with every job
  /// known up front; live host admission can order differently when jobs
  /// are submitted over time (results never depend on that order, only
  /// cache warmth does).
  [[nodiscard]] ScheduleReport simulated_schedule();

 private:
  struct Job {
    JobConfig config;
    JobBody body;
    std::shared_ptr<MissionRunner> runner;
    std::uint64_t id = 0;
    bool finished = false;       // guarded by pool mutex
    sim::SimTime sim_duration = 0;
    /// Tracer::now_ns() at admission into the queue; run_job turns the
    /// difference into the job's queue-wait span/phase.
    std::uint64_t submit_ns = 0;
    /// Array ids leased while running (guarded by pool mutex; empty when
    /// queued or released).
    std::vector<std::size_t> leased;
    /// Admission time + config.deadline_ms (set when deadline_ms > 0).
    std::chrono::steady_clock::time_point deadline{};
  };
  /// Per-array identity and health; free_arrays_ always equals the
  /// number of kFree slots.
  struct ArraySlot {
    ArrayHealth::State state = ArrayHealth::State::kFree;
    bool pending_quarantine = false;
    std::uint64_t job_id = 0;  // meaningful while kLeased
  };
  /// A job whose body could not be dispatched to the execution core:
  /// its finish() must be fired AFTER mutex_ is released (observers may
  /// lock arbitrary caller state; never invoke them under the pool
  /// lock).
  struct FailedStart {
    std::shared_ptr<MissionRunner> runner;
    std::string error;
  };

  /// Admits queued jobs while capacity allows, appending dispatch
  /// failures for the caller to finish outside the lock. Caller holds
  /// mutex_.
  void admit_locked(std::vector<FailedStart>& failures);
  static void finish_failed(std::vector<FailedStart>& failures);
  void run_job(Job* job);
  /// Quarantines `id` (see quarantine_array); caller holds mutex_ and
  /// finishes `failures` outside it.
  void quarantine_locked(std::size_t id, std::vector<FailedStart>& failures);
  /// Fails queued jobs that can never fit the healthy capacity.
  void evict_unsatisfiable_locked(std::vector<FailedStart>& failures);
  /// Copies the guarded counters into the atomic mirrors that
  /// quick_stats() reads. Caller holds mutex_ (the constructor calls it
  /// before any concurrency exists).
  void publish_stats_locked() const noexcept;

  PoolConfig config_;
  CompiledArrayCache cache_;
  evo::FitnessMemo memo_;
  /// unique_ptr: MissionImagesCache lives a layer above (missions.hpp),
  /// only forward-declared here. Never null.
  std::unique_ptr<MissionImagesCache> images_cache_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  JobQueue queue_;
  /// Live + unreaped records, keyed (and iterated) by submission id.
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_job_id_ = 0;
  std::uint64_t submitted_ = 0;  // survives reaping, unlike jobs_.size()
  std::vector<ArraySlot> slots_;  // one per array, guarded by mutex_
  std::size_t free_arrays_;
  std::size_t quarantined_ = 0;
  std::size_t running_ = 0;
  /// Job bodies submitted to ThreadPool::global() whose run_job has not
  /// yet reached its final critical section; wait_all (and therefore the
  /// destructor) waits for zero, so no worker can still be inside a
  /// run_job that references this pool when it is torn down.
  std::size_t pending_tasks_ = 0;
  // Terminal-status tallies (guarded by mutex_).
  std::uint64_t done_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t preempted_ = 0;
  std::uint64_t deadline_expired_ = 0;
  /// Relaxed-atomic mirrors of the guarded counters, republished at the
  /// end of every mutating critical section (see publish_stats_locked).
  struct StatMirror {
    std::atomic<std::size_t> free_arrays{0};
    std::atomic<std::size_t> quarantined{0};
    std::atomic<std::size_t> running{0};
    std::atomic<std::size_t> queued{0};
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> preempted{0};
    std::atomic<std::uint64_t> deadline_expired{0};
  };
  mutable StatMirror mirror_;
};

}  // namespace ehw::sched
