#pragma once
// svc::Server — the mission service daemon: a loopback TCP front-end
// over one sched::ArrayPool. Scaling past one pool means more daemons
// behind an svc::Forwarder. The sessions, frame armor and handshake are
// svc::Frontend's (frontend.hpp).
//
// Admission control: `submit` and `submit_batch` admit through one
// function (admit). At most `max_inflight` jobs may be submitted but not
// yet finished (queued in the pool counts); beyond that, an admission is
// rejected whole with code "queue_full" and a retry_after_ms hint, so
// clients get explicit backpressure instead of an ever-growing queue.
// Lane demand is validated against the pool before submission.
//
// Drain/shutdown: drain() (or the "drain" op) makes every subsequent
// submit fail with code "draining" while running/queued jobs finish
// normally; wait_drained() blocks until the service is drained and is
// what `mpa serve` sits on. stop() closes the listener and sessions,
// waits for the pool, and joins every thread — it never aborts a running
// job (cancel first for a fast exit).
//
// Results delivered through the service are computed by the exact same
// pool/job-body path as `mpa batch`, so they inherit the scheduler's
// guarantee: bit-identical to a standalone run of the same spec.
//
// A finished job is its committed answer. One finish path (finish_job)
// takes every job out of the live set — a mission that ran to its end, a
// preempted one no healthy slice can host, and one replayed from the
// journal — and leaves the record holding its answer (terminal status,
// waves and `result` body text, plus the replayed flag) beside its id
// and spec, and no runner, checkpoint or watcher, so no connection
// outlives its session. Every handler answers a finished job from those
// fields alone; the replies of a job that finished in this incarnation
// and of one replayed from the log differ only by "replayed":true.
// `result` waits for that commit, so its answer is never one a crash
// could lose.
//
// Durability (optional, ServerConfig::journal_dir): every admitted job
// is journaled write-ahead ("submitted" before launch, "finished" with
// the full result body as the commit, before any waiter or watcher is
// answered), running jobs checkpoint their evolution state every
// `checkpoint_every` generations, and a restarting daemon replays the
// journal — finished missions are re-served from the log without
// recomputation, unfinished ones are resubmitted and resume from their
// latest checkpoint, landing on bit-identical results.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ehw/obs/metrics.hpp"
#include "ehw/sched/array_pool.hpp"
#include "ehw/svc/frontend.hpp"
#include "ehw/svc/journal.hpp"
#include "ehw/svc/protocol.hpp"

namespace ehw::svc {

struct ServerConfig : FrontendConfig {
  /// The scheduler pool the daemon fronts.
  sched::PoolConfig pool;
  /// Submitted-but-unfinished job cap; 0 = 2x the pool's arrays.
  std::size_t max_inflight = 0;
  /// Finished-job retention: when the registry exceeds this many
  /// records, the oldest FINISHED jobs are evicted (their ids stop
  /// resolving for status/result). Bounds daemon memory and the `list`
  /// frame over long uptimes; live jobs are never evicted. 0 = keep
  /// everything.
  std::size_t max_job_records = 4096;
  /// Journal directory; empty = no durability (the pre-durable daemon).
  /// When set, the daemon appends a write-ahead job journal there,
  /// checkpoints running missions, and replays everything on startup.
  std::string journal_dir;
  /// Checkpoint cadence for journaled jobs, in generations. 0 disables
  /// checkpointing (recovery then restarts missions from scratch, still
  /// bit-identical — just slower).
  std::uint64_t checkpoint_every = 25;
  /// Persist the FitnessMemo to warm.json on graceful stop and preload it
  /// on startup (journaled daemons only).
  bool persist_warm = true;
};

/// Journal/recovery counters (the "stats" op's journal section). All
/// fixed at replay time except checkpoints/appends, which grow.
struct JournalStats {
  bool enabled = false;
  std::uint64_t replayed_records = 0;  // parseable records read at start
  std::uint64_t replayed_finished = 0;  // missions re-served from the log
  std::uint64_t resumed = 0;            // unfinished missions resubmitted
  std::uint64_t resumed_from_checkpoint = 0;
  std::uint64_t corrupt = 0;  // unparsable interior lines
  bool truncated_tail = false;  // torn final line (crash mid-append)
  std::uint64_t warm_memo_loaded = 0;
  std::uint64_t checkpoints_written = 0;  // this incarnation
  std::uint64_t appended = 0;             // this incarnation
};

/// Point-in-time service counters (the "stats" op's service section).
struct ServiceStats {
  std::uint64_t connections = 0;  // accepted since start
  std::size_t sessions_open = 0;
  std::size_t inflight = 0;
  std::size_t max_inflight = 0;
  bool draining = false;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  // queue_full + draining rejections
  std::uint64_t migrations = 0;  // preempted missions relaunched elsewhere
  /// Membership identity (see Server::instance_id()/epoch()).
  std::string instance_id;
  std::uint64_t epoch = 0;
};

class Server {
 public:
  /// Binds, listens and starts serving. Throws std::runtime_error when
  /// the endpoint cannot be bound.
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return frontend_->port();
  }
  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  /// Membership identity. The instance id is minted once and persisted
  /// in the journal dir (ephemeral for non-durable daemons); the epoch
  /// bumps on every restart of the same instance. A forwarder uses the
  /// pair to tell "restarted, state gone" (epoch moved) from "stalled,
  /// state intact" (same epoch) when a backend revives.
  [[nodiscard]] const std::string& instance_id() const noexcept {
    return instance_id_;
  }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] sched::ArrayPool& pool() noexcept { return pool_; }

  /// Stops admitting new jobs (running/queued ones finish normally).
  void drain();
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_relaxed);
  }
  /// Blocks until drain() was requested (by any path) and every admitted
  /// job has finished.
  void wait_drained();

  /// Graceful shutdown: refuse new connections, unblock sessions, finish
  /// in-flight jobs, join all threads. Idempotent; also run by ~Server.
  void stop();

  [[nodiscard]] ServiceStats service_stats() const;
  [[nodiscard]] JournalStats journal_stats() const;

  /// This daemon's metric registry (counters/gauges/histograms behind
  /// the stats/health ops and the Prometheus endpoint).
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }
  /// Prometheus text exposition of the registry; refreshes the
  /// scrape-time gauges (queue depth, steal counts, hit rates, fault
  /// firings) from the pool first. Handed to MetricsHttp by
  /// `mpa serve --metrics-port`.
  [[nodiscard]] std::string metrics_text();

 private:
  /// One watch subscription: the session's channel and its progress
  /// cadence. Re-attached to each new incarnation's runner so progress
  /// streams survive a migration.
  struct Watcher {
    std::shared_ptr<LineChannel> channel;
    std::uint64_t every = 1;
  };
  /// A job is live (it has a runner) until finish_job commits its
  /// answer; from then on handlers read only id, spec, `replayed` and
  /// the final_* fields (see the file comment). Every field but id and
  /// spec is guarded by state_mutex_.
  struct JobRecord {
    std::uint64_t id = 0;
    sched::MissionSpec spec;
    /// Tracer::now_ns() at admission; feeds the `age_ms` list field of a
    /// live job and the mission wall-time histogram.
    std::uint64_t submitted_ns = 0;
    /// Live execution handle, swapped when a preempted mission migrates
    /// to a new slice.
    std::shared_ptr<sched::MissionRunner> runner;
    /// Saved state a resubmitted mission resumes from (loaded from its
    /// job-<id>.ckpt sidecar during replay, carried by a failover
    /// submit, or taken from `latest` when migrating off a quarantined
    /// slice).
    std::shared_ptr<const platform::MissionCheckpoint> resume;
    /// Latest generation-boundary checkpoint, held in memory for every
    /// running job (journaled or not) — the state a migration restores.
    std::shared_ptr<const platform::MissionCheckpoint> latest;
    /// Lease width override for a migrated incarnation (0 = spec.lanes).
    /// An evolve mission preempted off its slice relaunches on
    /// min(spec.lanes, healthy) arrays; the checkpoint's logical lane
    /// count keeps results bit-identical either way.
    std::size_t grant_lanes = 0;
    std::vector<Watcher> watchers;
    /// The committed answer, immutable once `finished` is set.
    bool finished = false;
    /// Re-served from the journal of an earlier incarnation (or failed
    /// at replay); the one thing that sets its replies apart.
    bool replayed = false;
    std::string final_status;
    std::uint64_t final_waves = 0;
    /// The `result` body as serialized text (a fraction of a Json tree's
    /// heap, and the daemon keeps up to max_job_records of them).
    std::string final_result;
  };
  /// The Frontend handler: this daemon's ops. nullopt when the handler
  /// already wrote its own frames (watch).
  [[nodiscard]] std::optional<Json> handle_request(
      const std::string& op, const Json& request,
      const std::shared_ptr<LineChannel>& channel);
  /// `submit` (one spec, optional resume state) and `submit_batch`
  /// parse and frame their replies; admit() does the rest.
  [[nodiscard]] Json handle_submit(const Json& request);
  [[nodiscard]] Json handle_submit_batch(const Json& request);
  /// The one way in: validates lane demand, reserves one inflight slot
  /// per record or none (queue_full with a retry_after_ms hint, or
  /// draining), assigns ids, journals each "submitted" record and
  /// launches it. nullopt once every record is admitted, else the
  /// refusal reply.
  [[nodiscard]] std::optional<Json> admit(
      const std::vector<std::shared_ptr<JobRecord>>& records);
  /// Registers one admitted job: pool submission, record registry,
  /// terminal observer, watch re-attachment. Caller already reserved the
  /// inflight slot. Runs OUTSIDE state_mutex_: pool submission may fire
  /// a finish observer on this thread.
  void launch_job(const std::shared_ptr<JobRecord>& record);
  /// The one way out: appends the "finished" record (journaled daemons,
  /// when `commit`) before anyone hears of the finish, makes the record
  /// its committed answer, drops its runner, checkpoints and watchers,
  /// releases a live job's inflight slot and sends the watchers their
  /// done frames. Callers: the runner's terminal observer, a failed
  /// migration and journal replay (commit = false for an answer the log
  /// already holds).
  void finish_job(const std::shared_ptr<JobRecord>& record,
                  const std::string& status, std::uint64_t waves,
                  const Json& result, bool commit = true);
  [[nodiscard]] Json handle_status(const Json& request);
  [[nodiscard]] Json handle_result(const Json& request);
  [[nodiscard]] Json handle_cancel(const Json& request);
  [[nodiscard]] Json handle_list();
  [[nodiscard]] Json handle_stats();
  [[nodiscard]] Json handle_health();
  [[nodiscard]] std::optional<Json> handle_watch(
      const std::shared_ptr<LineChannel>& channel, const Json& request);
  [[nodiscard]] Json handle_drain(const Json& request);
  [[nodiscard]] std::shared_ptr<JobRecord> find_job(const Json& request,
                                                    std::string& error) const;
  /// Evicts the oldest finished jobs beyond max_job_records. Caller
  /// holds state_mutex_.
  void prune_finished_locked();
  /// Opens the journal, replays its records (re-registering finished
  /// missions, resubmitting unfinished ones) and preloads warm state.
  /// Runs from the constructor, before the listener exists.
  void replay_journal();
  void journal_submitted(const JobRecord& record);
  /// Relaunches a preempted mission from its latest checkpoint onto the
  /// healthy remainder of the pool (runs on the job thread that just
  /// preempted; inflight_ stays held across the hop). Finishes the job
  /// failed when nothing can host the mission.
  void migrate_job(const std::shared_ptr<JobRecord>& record);

  /// Refreshes the scrape-time gauges from the pool; called by
  /// metrics_text() and cheap enough for every scrape.
  void refresh_gauges();

  /// Mints/bumps the persistent instance identity (instance.json in the
  /// journal dir; ephemeral otherwise). Constructor-only.
  void mint_identity();
  /// Backpressure hint for a queue_full rejection: expected ms until
  /// `incoming` slots free up, from the observed mission wall-time
  /// distribution and current queue depth. Caller holds state_mutex_.
  [[nodiscard]] std::uint64_t retry_after_ms_locked(
      std::size_t incoming) const;

  ServerConfig config_;
  std::size_t max_inflight_ = 0;
  std::string instance_id_;   // constructor-written, then immutable
  std::uint64_t epoch_ = 1;   // constructor-written, then immutable

  // Telemetry. Declared first so every later member — including job
  // threads holding counter references through the checkpoint sink — is
  // destroyed before the registry. The references below REPLACE the old
  // hand-rolled stat members; service_stats()/handle_stats() read them,
  // so the wire shape is unchanged while the same numbers feed the
  // Prometheus endpoint for free.
  obs::Registry metrics_;
  obs::Counter& m_submitted_ = metrics_.counter("mpa_missions_submitted_total");
  obs::Counter& m_rejected_ = metrics_.counter("mpa_missions_rejected_total");
  obs::Counter& m_connections_ = metrics_.counter("mpa_connections_total");
  obs::Counter& m_migrations_ = metrics_.counter("mpa_migrations_total");
  obs::Counter& m_checkpoints_written_ =
      metrics_.counter("mpa_checkpoints_written_total");
  obs::Gauge& m_inflight_ = metrics_.gauge("mpa_inflight_missions");
  obs::Histogram& m_submit_latency_ =
      metrics_.histogram("mpa_submit_ack_latency_ns");
  obs::Histogram& m_mission_wall_ =
      metrics_.histogram("mpa_mission_wall_time_ns");
  obs::Histogram& m_mission_sim_ =
      metrics_.histogram("mpa_mission_sim_time_ns");

  // Durability. The journal is written from job threads (finished
  // records) until pool_ is destroyed, so it is declared before pool_
  // to be destroyed after it.
  std::unique_ptr<MissionJournal> journal_;
  std::uint64_t replayed_records_ = 0;  // replay-time constants
  std::uint64_t replayed_finished_ = 0;
  std::uint64_t resumed_ = 0;
  std::uint64_t resumed_from_checkpoint_ = 0;
  std::uint64_t journal_corrupt_ = 0;
  bool journal_truncated_tail_ = false;
  std::uint64_t warm_memo_loaded_ = 0;

  // Service state. Declared before the pool and the front end so it is
  // destroyed last (job-finished callbacks lock state_mutex_).
  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;
  std::map<std::uint64_t, std::shared_ptr<JobRecord>> jobs_;  // by id
  std::uint64_t next_job_id_ = 1;
  /// Submitted, not yet finished. Stays a plain guarded integer (the
  /// admission comparisons need a consistent read under state_mutex_);
  /// m_inflight_ mirrors it for the scrape path.
  std::size_t inflight_ = 0;
  std::atomic<bool> draining_{false};
  bool stopped_ = false;  // stop() ran to completion (main thread only)

  sched::ArrayPool pool_;
  std::unique_ptr<Frontend> frontend_;
};

}  // namespace ehw::svc
