#pragma once
// svc::Forwarder — the federation front daemon: speaks the mission
// service protocol northbound to clients and southbound (as a plain
// svc::Client) to a set of backend daemons, so a cluster of `mpa serve`
// processes looks like one big service.
//
// Routing goes through a sched::PlacementPolicy: each backend is a
// PlacementTarget refreshed by a background stats poll, and repeat
// mission fingerprints are steered to the backend whose FitnessMemo
// already holds their fitnesses (every candidate is still fingerprinted
// and compiled there; the memo then skips its frame streaming).
// Placement is a speed decision only — every backend computes
// bit-identical results for the same spec.
//
// Admission: `submit` (a one-spec batch) and `submit_batch` go through
// one function (admit) with one brownout rule, judged by the narrowest
// spec, and every admission travels southbound as submit_batch, one per
// backend it lands on. A backend's refusal comes back to the client as
// the backend gave it, retry_after_ms included, so with_retry waits out
// a daemon's queue_full through a front too. Failover resubmits stay
// `submit` + "resume": they re-place an existing route, they admit
// nothing new.
//
// Liveness and failover: a backend that misses `down_after` consecutive
// polls is declared down. Its placement affinities are dropped (the warm
// state died with it) and every unfinished mission routed there fails
// over: the forwarder reads the mission's latest checkpoint from the
// backend's journal directory (when configured and visible from this
// host — loopback or shared-filesystem deployments), re-places it among
// the survivors, and resubmits with the protocol's additive "resume"
// field so the mission continues from its last generation boundary
// instead of restarting. No checkpoint → a from-scratch resubmit, still
// bit-identical, just slower. No surviving backend → the route finishes
// "failed" with the reason, served locally.
//
// Watch/result northbound ops survive failover: they track the route's
// incarnation (generation counter) and re-attach southbound when it
// moves, exactly like Server re-attaches watchers across an in-process
// migration.
//
// Southbound connections are pooled: every request/response exchange
// with a backend (admissions, status, cancel, health, drain, list rows,
// failover resubmits, result and watch waits) leases an idle
// ClientPool connection and hands it back once the exchange completed,
// so a busy front connects and handshakes once per connection instead
// of once per op. Polls and fence cancels keep a fresh connection each:
// the greeting is the identity probe. A backend's idle connections are
// flushed when it is taken down and when it is removed; stop() closes
// them all.
//
// The forwarder keeps no journal of its own: durability lives in the
// backends. Its route table (front job id -> backend job) is in-memory
// and bounded like a daemon's job registry (kMaxRoutes, oldest finished
// routes evicted first); clients that must survive a forwarder restart
// key their waits by mission NAME (watch_mission / submit_idempotent),
// which any backend resolves from its journal.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ehw/obs/metrics.hpp"
#include "ehw/sched/placement.hpp"
#include "ehw/svc/client.hpp"
#include "ehw/svc/frontend.hpp"
#include "ehw/svc/protocol.hpp"

namespace ehw::svc {

struct BackendConfig {
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;
  /// The backend's journal directory AS VISIBLE FROM THIS HOST; "" means
  /// no checkpoint access (failover restarts missions from scratch).
  std::string journal_dir;
};

/// The FrontendConfig base is the northbound endpoint and session armor.
struct ForwarderConfig : FrontendConfig {
  std::vector<BackendConfig> backends;
  /// Backend stats-poll cadence (placement freshness + liveness).
  int poll_ms = 250;
  /// Consecutive failed polls before a backend is declared down.
  int down_after = 2;
  /// Socket IO bound for southbound connections (submit/status/stats/...).
  /// Blocking waits (result/watch) lift the read bound for the wait and
  /// rely on the peer's death resetting the connection.
  int io_timeout_ms = 5000;
};

/// Point-in-time forwarder counters (the "stats" op's cluster.forwarder
/// section).
struct ForwarderStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failovers = 0;
  /// Failovers that carried a checkpoint (vs from-scratch resubmits).
  std::uint64_t failover_resumed = 0;
  /// Split-brain fence cancels issued to reviving backends (missions
  /// that already failed over elsewhere, cancelled by name before the
  /// revived backend's state is trusted again).
  std::uint64_t fences = 0;
  /// Down->up revival edges observed (cold = epoch moved, or warm).
  std::uint64_t rejoins = 0;
  /// Brownout rejections: low-priority submits shed while every backend
  /// was saturated or cold.
  std::uint64_t shed = 0;
  /// Southbound leases that opened a new connection vs reused an idle
  /// one (polls and fence cancels are not leases).
  std::uint64_t southbound_connects = 0;
  std::uint64_t southbound_reuses = 0;
  std::size_t routes = 0;
  std::size_t backends_up = 0;
  bool draining = false;
};

class Forwarder {
 public:
  /// Route-table retention: beyond this many routes the oldest FINISHED
  /// ones are evicted and their ids and names answer unknown_job, like a
  /// daemon's jobs beyond its max_job_records (same default). Live
  /// routes are never evicted.
  static constexpr std::size_t kMaxRoutes = 4096;

  /// Polls every backend once (so the first submit has placement data),
  /// then binds and serves. Throws std::runtime_error when the endpoint
  /// cannot be bound or no backends are configured.
  explicit Forwarder(ForwarderConfig config);
  ~Forwarder();

  Forwarder(const Forwarder&) = delete;
  Forwarder& operator=(const Forwarder&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return frontend_->port();
  }
  [[nodiscard]] const ForwarderConfig& config() const noexcept {
    return config_;
  }

  /// Stops accepting new missions here AND fans the drain out to every
  /// reachable backend.
  void drain();

  /// Blocks until a northbound drain arrives and every routed mission is
  /// terminal on its backend — the serve loop of `mpa forward`.
  void wait_drained();

  /// Graceful shutdown: refuse new connections, unblock sessions, join
  /// all threads. Sessions blocked in result/watch follow their backend
  /// mission to completion first (the forwarder never abandons a wait).
  void stop();

  [[nodiscard]] ForwarderStats forwarder_stats() const;

  /// The forwarder's metric registry (its own, never the backends').
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }
  /// Prometheus text exposition with per-backend labelled gauges
  /// (up/poll-age/capacity) refreshed at scrape time. Handed to
  /// MetricsHttp by `mpa forward --metrics-port`.
  [[nodiscard]] std::string metrics_text();

  /// Chaos/test hook: treat backend `index` as dead NOW — the same path
  /// a real death takes after `down_after` missed polls (affinity drop +
  /// failover of its routes). A later successful poll resurrects it.
  void mark_backend_down(std::size_t index);

  /// Jittered exponential re-poll delay for a down backend, as a PURE
  /// function of (poll cadence, fault-plan seed, backend, round): delay
  /// doubles per round up to max(poll_ms, 10 s), plus a stateless-hash
  /// jitter in [0, delay/2). Same seed → the exact same revival
  /// schedule, which is what makes seeded chaos runs replayable.
  [[nodiscard]] static std::uint64_t backoff_delay_ns(int poll_ms,
                                                      std::uint64_t seed,
                                                      std::size_t index,
                                                      int round);

 private:
  struct Route {
    std::uint64_t id = 0;  // front id clients see
    sched::MissionSpec spec;
    std::size_t backend = 0;
    std::uint64_t backend_job = 0;
    /// Bumped on every failover; watch/result waiters re-resolve when it
    /// moves past their snapshot. Guarded by state_mutex_.
    std::uint64_t generation = 0;
    std::uint64_t failovers = 0;
    /// Backend epoch the CURRENT incarnation was placed against (0 =
    /// identity unknown at placement time). A revived backend with a
    /// different epoch is a different incarnation of the world; routes
    /// carry the epoch so membership events are attributable. Guarded by
    /// state_mutex_.
    std::uint64_t placed_epoch = 0;
    /// Terminal state recorded HERE (failover dead end) — the backends
    /// no longer own this mission's answer. Guarded by state_mutex_.
    bool finished = false;
    std::string final_status;
    /// Waves the mission ran, from the answering `result` reply (0 for a
    /// failover dead end).
    std::uint64_t final_waves = 0;
    /// The terminal answer as its serialized frame, parsed again for each
    /// later `result` or `status` read: text holds a fraction of a Json
    /// tree's heap, and the front keeps up to kMaxRoutes finished routes.
    std::string final_result;
    /// The optimistic capacity bump for this route was handed back: the
    /// route was seen terminal on its current incarnation (a failover
    /// clears it), so it may be pruned. Guarded by state_mutex_.
    bool capacity_released = false;
  };
  struct BackendState {
    int failures = 0;
    std::uint64_t polls = 0;
    /// Identity learned from the greeting of each poll connection
    /// (""/0 until the first good poll, or against pre-epoch daemons).
    std::string instance_id;
    std::uint64_t epoch = 0;
    /// Declared down (take_down_locked ran). Distinct from
    /// !target.reachable: a boot-time never-polled backend is
    /// unreachable but not yet *down*.
    bool down = false;
    /// Consecutive failed polls since declared down — exponent of the
    /// jittered re-poll backoff.
    int backoff_round = 0;
    /// Down backends are skipped by the poll loop until this deadline.
    std::uint64_t next_poll_ns = 0;
    /// Tombstoned by `backend remove`: never polled, never placed, kept
    /// so route indices stay stable.
    bool removed = false;
    /// Mission names that failed over OFF this backend while it was
    /// down, or whose submit broke on a reused connection and may have
    /// reached it; cancelled by name on revival (split-brain fence)
    /// before the backend is trusted again.
    std::vector<std::string> fence_names;
    std::uint64_t fences = 0;   // fence cancels issued against it
    std::uint64_t rejoins = 0;  // down->up revival edges
    std::string last_fence;     // human summary of the last revival/fence
    /// Tracer::now_ns() of the last successful poll; 0 = never. Drives
    /// the per-backend poll-age gauge and the health op's `stale` flag
    /// (a backend can be reachable but fed by old data — stale != down).
    std::uint64_t last_good_poll_ns = 0;
    sched::PlacementTarget target;  // reachable=false until a good poll
    Json pool_json;                 // last good poll's "pool" section
    /// Lanes/jobs optimistically placed since the last good poll. Kept
    /// OUTSIDE `target` so a poll resets them wholesale and a route seen
    /// finishing between polls hands its share back immediately — without
    /// either correction fighting the other. Guarded by state_mutex_.
    std::size_t opt_lanes = 0;
    std::size_t opt_jobs = 0;
  };
  /// The Frontend handler: the forwarder's ops.
  [[nodiscard]] std::optional<Json> handle_request(
      const std::string& op, const Json& request,
      const std::shared_ptr<LineChannel>& channel);
  /// One admitted spec: its front id, its backend, and whether placement
  /// hit the backend already warm for its fingerprint.
  struct Admitted {
    std::uint64_t job = 0;
    std::size_t backend = 0;
    bool affinity = false;
  };
  /// `submit` (one spec) and `submit_batch` parse and frame their
  /// replies; admit() does the rest.
  [[nodiscard]] Json handle_submit(const Json& request);
  [[nodiscard]] Json handle_submit_batch(const Json& request);
  /// The one way in: refuses specs wider than every member's pool
  /// (bad_spec), sheds a low-priority admission on a saturated cluster
  /// (judged by its narrowest spec), places every spec, sends each
  /// backend its share as one submit_batch and records the routes.
  /// nullopt once every spec is admitted (`admitted` in spec order),
  /// else the refusal reply — a backend's relayed as it gave it.
  [[nodiscard]] std::optional<Json> admit(
      const std::vector<sched::MissionSpec>& specs,
      std::vector<Admitted>& admitted);
  [[nodiscard]] Json handle_status(const Json& request);
  [[nodiscard]] Json handle_result(const Json& request);
  [[nodiscard]] Json handle_cancel(const Json& request);
  [[nodiscard]] Json handle_list();
  [[nodiscard]] Json handle_stats();
  [[nodiscard]] Json handle_health();
  /// Live membership: {"op":"backend","action":"add"|"remove"|"list"}.
  /// add appends a backend and polls it immediately; remove tombstones
  /// (indices are never reused — routes keep their backend index) and
  /// fails the victim's unfinished routes over to the survivors.
  [[nodiscard]] Json handle_backend(const Json& request);
  [[nodiscard]] std::optional<Json> handle_watch(
      const std::shared_ptr<LineChannel>& channel, const Json& request);
  [[nodiscard]] Json handle_drain(const Json& request);
  /// Polls until no route is queued/running on its backend (drain-wait).
  void wait_routes_idle();
  [[nodiscard]] std::shared_ptr<Route> find_route(const Json& request,
                                                  std::string& error) const;
  /// Caller holds state_mutex_. Evicts the oldest finished routes beyond
  /// kMaxRoutes; live routes stay whatever their age.
  void prune_finished_locked();

  /// The one way to reach a backend for a request/response exchange:
  /// runs `exchange(Client&)` on a connection leased from the backend's
  /// pool and hands it back once `exchange` returned. A throw closes the
  /// connection and propagates. The request is never re-sent, with one
  /// exception: a reused connection answered idle_timeout, which a
  /// daemon sends only when it read no request, so the exchange runs
  /// once more on a fresh connection. A submit passes its mission names
  /// as `fence`: when it throws on a reused connection the request may
  /// already sit on the daemon, so the names join the backend's fence.
  template <typename Exchange>
  auto southbound(std::size_t backend, Exchange&& exchange,
                  const std::vector<std::string>& fence = {});
  /// Locked copy of one backend's endpoint config — membership can grow
  /// concurrently, so nothing may hold a reference across a network op.
  [[nodiscard]] BackendConfig backend_config(std::size_t backend) const;

  void poll_loop();
  /// One liveness/stats probe; on the reachable->down edge collects the
  /// backend's unfinished routes and fails them over.
  void poll_backend(std::size_t index);
  /// Caller holds state_mutex_. Flips the backend down, drops its
  /// affinities and returns the routes needing failover.
  [[nodiscard]] std::vector<std::shared_ptr<Route>> take_down_locked(
      std::size_t index);
  /// Re-places one orphaned route (checkpoint read -> resume submit).
  void failover_route(const std::shared_ptr<Route>& route,
                      std::size_t dead_backend);
  /// Terminal local failure for a route no backend can continue.
  void finish_route_failed(const std::shared_ptr<Route>& route,
                           const std::string& error);
  /// Caller holds state_mutex_: the per-backend PlacementTargets with
  /// the optimistic overlay applied (removed backends unreachable).
  [[nodiscard]] std::vector<sched::PlacementTarget> target_snapshot_locked()
      const;
  /// Caller holds state_mutex_: placement over the current target
  /// snapshots, with an optimistic capacity bump on the winner so a
  /// burst of submits between polls spreads out.
  [[nodiscard]] sched::PlacementPolicy::Decision place_locked(
      const sched::MissionSpec& spec);
  /// The public static backoff over this forwarder's poll cadence and
  /// the process fault-plan seed.
  [[nodiscard]] std::uint64_t backoff_delay_ns(std::size_t index,
                                               int round) const;
  /// Caller holds state_mutex_: backpressure hint for a brownout shed,
  /// sized from the poll cadence and the cluster-wide backlog.
  [[nodiscard]] std::uint64_t shed_retry_after_ms_locked() const;
  /// Caller holds state_mutex_. Returns the route's optimistic bump to
  /// its backend the first time the route is observed terminal, so a
  /// repeat submit right after a result doesn't see a stale "full"
  /// snapshot and spill off its warm backend.
  void release_route_locked(Route& route);

  /// Refreshes the per-backend labelled gauges; called by metrics_text().
  void refresh_gauges();

  ForwarderConfig config_;

  // Telemetry. Declared before every thread that records into it; the
  // counter references REPLACE the old guarded tallies (the wire shape
  // of stats/health is unchanged — the registry is just where the same
  // numbers now live, labelled for the Prometheus endpoint).
  obs::Registry metrics_;
  obs::Counter& m_submitted_ = metrics_.counter("mpa_missions_submitted_total");
  obs::Counter& m_rejected_ = metrics_.counter("mpa_missions_rejected_total");
  obs::Counter& m_failovers_ = metrics_.counter("mpa_failovers_total");
  obs::Counter& m_failover_resumed_ =
      metrics_.counter("mpa_failovers_resumed_total");
  obs::Counter& m_connections_ = metrics_.counter("mpa_connections_total");
  obs::Counter& m_fences_ = metrics_.counter("mpa_fence_cancels_total");
  obs::Counter& m_rejoins_ = metrics_.counter("mpa_backend_rejoins_total");
  obs::Counter& m_shed_ = metrics_.counter("mpa_submits_shed_total");
  obs::Counter& m_southbound_connects_ =
      metrics_.counter("mpa_southbound_connects_total");
  obs::Counter& m_southbound_reuses_ =
      metrics_.counter("mpa_southbound_reuses_total");
  /// Idle southbound connections per backend index. Its own mutex: no
  /// network IO ever runs under state_mutex_. Declared before every
  /// thread that leases from it.
  ClientPool pool_{config_.io_timeout_ms, m_southbound_connects_,
                   m_southbound_reuses_};

  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;
  /// Live membership. Deques, not vectors: `backend add` appends while
  /// sessions hold indices, and deque growth never moves existing
  /// elements. Both guarded by state_mutex_; config_.backends stays the
  /// boot-time snapshot.
  std::deque<BackendConfig> backend_configs_;
  std::deque<BackendState> backends_;
  std::map<std::uint64_t, std::shared_ptr<Route>> routes_;  // by front id
  std::uint64_t next_id_ = 1;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;  // stop() ran to completion (main thread only)

  sched::PlacementPolicy placement_;

  std::thread poller_;
  std::mutex poll_mutex_;
  std::condition_variable poll_cv_;
  std::unique_ptr<Frontend> frontend_;
};

}  // namespace ehw::svc
