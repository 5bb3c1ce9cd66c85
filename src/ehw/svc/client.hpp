#pragma once
// svc::Client — small blocking client for the mission service. Used by
// the `mpa submit` / `mpa ps` / `mpa cancel` / `mpa drain` subcommands,
// the service tests and the throughput bench.
//
// One Client == one connection == one thread of use (the request loop is
// strictly request/response; `watch` turns the connection into an event
// stream until its job finishes). Connection or handshake failures throw
// std::runtime_error; per-request rejections (queue_full, draining,
// unknown job) come back as data so callers can react without
// exception-driven control flow.
//
// ClientPool keeps idle connections for callers that make many short
// exchanges with the same daemons (the forwarder's southbound side).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ehw/obs/metrics.hpp"
#include "ehw/svc/protocol.hpp"
#include "ehw/svc/socket.hpp"

namespace ehw::svc {

class Client {
 public:
  /// Connects and performs the versioned handshake. Throws
  /// std::runtime_error on connection failure, a non-service peer, or a
  /// protocol version mismatch. `io_timeout_ms` (0 = none) bounds every
  /// socket read AND write (SO_RCVTIMEO/SO_SNDTIMEO), so a stalled or
  /// dead daemon surfaces as a lost connection instead of a hang — note
  /// it also bounds the blocking `result` wait, so pair it with ops that
  /// poll (status) or with with_retry for long missions.
  explicit Client(std::uint16_t port,
                  const std::string& address = "127.0.0.1",
                  int io_timeout_ms = 0);

  /// Server build version reported in the handshake.
  [[nodiscard]] const std::string& server_version() const noexcept {
    return server_version_;
  }
  /// Membership identity from the greeting: a persistent per-daemon id
  /// and a restart-bumped epoch (empty/0 against pre-epoch daemons and
  /// forwarders, which have no single backend identity).
  [[nodiscard]] const std::string& server_instance_id() const noexcept {
    return server_instance_id_;
  }
  [[nodiscard]] std::uint64_t server_epoch() const noexcept {
    return server_epoch_;
  }

  /// Between exchanges: whether the connection can carry another one.
  /// Nothing is buffered, no write failed, and the server has neither
  /// closed it (idle timeout, restart) nor sent anything unread. Never
  /// blocks.
  [[nodiscard]] bool reusable() { return channel_.reusable(); }

  /// The server closed this session for idleness: a reply was an
  /// idle_timeout error, which a daemon sends only when its idle bound
  /// expired before a request arrived, so it never read that request.
  [[nodiscard]] bool idled_out() const noexcept { return idled_out_; }

  /// Re-bounds socket reads (0 = none), e.g. lifted around a blocking
  /// result wait on a connection that otherwise keeps its io bound.
  void set_recv_timeout(int timeout_ms) noexcept {
    channel_.set_recv_timeout(timeout_ms);
  }

  struct Submitted {
    bool ok = false;
    std::uint64_t job = 0;
    std::string error;  // server message when !ok
    std::string code;   // machine tag: queue_full, draining, bad_spec...
    /// Backpressure hint on a queue_full rejection (0 = none given).
    std::uint64_t retry_after_ms = 0;
  };
  [[nodiscard]] Submitted submit(const sched::MissionSpec& spec);

  /// One submit_batch round trip: every spec accepted (job ids in spec
  /// order) or the whole batch rejected — admission is atomic
  /// server-side. Swarm clients submit a whole manifest in one request
  /// instead of one round trip per mission.
  struct BatchSubmitted {
    bool ok = false;
    std::vector<std::uint64_t> jobs;  // spec order; empty when !ok
    std::string error;
    std::string code;
    /// Backpressure hint on a queue_full rejection (0 = none given).
    std::uint64_t retry_after_ms = 0;
  };
  [[nodiscard]] BatchSubmitted submit_batch(
      const std::vector<sched::MissionSpec>& specs);

  /// Raw request/response round trip (adds nothing to `request`).
  [[nodiscard]] Json request(const Json& request);

  [[nodiscard]] Json status(std::uint64_t job);
  /// Status looked up by mission name (latest submission wins) — the
  /// idempotency probe: a name the service already knows (live registry
  /// or replayed journal) must not be submitted again.
  [[nodiscard]] Json status_by_name(const std::string& name);
  /// Blocks until the job finishes server-side; returns the full result
  /// payload (status, best_fitness, genotype_hash, sim_ns, ...).
  [[nodiscard]] Json result(std::uint64_t job);
  [[nodiscard]] Json result_by_name(const std::string& name);
  [[nodiscard]] bool cancel(std::uint64_t job);
  [[nodiscard]] Json list();
  [[nodiscard]] Json stats();
  [[nodiscard]] Json drain(bool wait);

  /// Subscribes to the job's progress stream and blocks until it
  /// finishes; `on_progress` (optional) sees each waves count. The
  /// server registers the subscription before acking, so every wave
  /// after `on_subscribed` fires (optional; e.g. a test barrier) is
  /// observed. Returns the final status name ("done", "failed",
  /// "cancelled"); `done_waves` (optional) receives the done frame's
  /// waves.
  [[nodiscard]] std::string watch(
      std::uint64_t job,
      const std::function<void(std::uint64_t waves)>& on_progress = {},
      std::uint64_t every = 1,
      const std::function<void()>& on_subscribed = {},
      std::uint64_t* done_waves = nullptr);

  /// watch keyed by mission name (latest submission with that name wins
  /// server-side) — the form that survives the job id changing across a
  /// daemon restart or a forwarder failover.
  [[nodiscard]] std::string watch_by_name(
      const std::string& name,
      const std::function<void(std::uint64_t waves)>& on_progress = {},
      std::uint64_t every = 1,
      const std::function<void()>& on_subscribed = {});

 private:
  [[nodiscard]] Json roundtrip(const Json& request);
  /// Every reply passes here: notes an idle_timeout (see idled_out()).
  void note_reply(const Json& reply);
  [[nodiscard]] Json job_op(const char* op, std::uint64_t job);
  [[nodiscard]] Json named_op(const char* op, const std::string& name);
  [[nodiscard]] std::string watch_request(
      Json request, const std::function<void(std::uint64_t waves)>& on_progress,
      const std::function<void()>& on_subscribed,
      std::uint64_t* done_waves = nullptr);

  LineChannel channel_;
  std::string server_version_;
  std::string server_instance_id_;
  std::uint64_t server_epoch_ = 0;
  bool idled_out_ = false;
};

/// Idle connections kept per slot (the forwarder keys slots by backend
/// index), so a caller making many short exchanges with the same daemons
/// connects and handshakes once per connection, not once per exchange.
/// A lease carries one exchange. Thread-safe; the pool's mutex is never
/// held across a connect or an exchange.
class ClientPool {
 public:
  /// Idle connections kept per slot; further returns are closed.
  static constexpr std::size_t kMaxIdle = 4;

  /// One connection, the holder's alone until give_back(). Dropping a
  /// lease (an exchange that threw) closes its connection.
  struct Lease {
    std::unique_ptr<Client> client;
    std::size_t slot = 0;
    std::uint64_t flushes = 0;  // the slot's flush count when leased
    bool reused = false;        // an idle connection, not a new one
  };

  /// New connections get `io_timeout_ms` as in the Client constructor;
  /// every lease counts as a connect or a reuse.
  ClientPool(int io_timeout_ms, obs::Counter& connects, obs::Counter& reuses)
      : io_timeout_ms_(io_timeout_ms), connects_(connects), reuses_(reuses) {}

  /// An idle connection of `slot` that is still reusable (dead ones are
  /// closed on the way), else a new one to `address:port`, which throws
  /// like the Client constructor. `reuse = false` always connects anew.
  [[nodiscard]] Lease lease(std::size_t slot, const std::string& address,
                            std::uint16_t port, bool reuse = true);
  /// Hands a connection back after a completed exchange. It is closed
  /// instead when it is not reusable, the slot was flushed since the
  /// lease or is retired, or the slot already holds kMaxIdle.
  void give_back(Lease lease);
  /// Closes the slot's idle connections; those leased before the flush
  /// are closed when handed back. `retire` refuses every later return.
  void flush(std::size_t slot, bool retire = false);
  void flush_all();

 private:
  struct Slot {
    std::vector<std::unique_ptr<Client>> idle;
    std::uint64_t flushes = 0;
    bool retired = false;
  };

  const int io_timeout_ms_;
  obs::Counter& connects_;
  obs::Counter& reuses_;
  std::mutex mutex_;
  std::map<std::size_t, Slot> slots_;
};

/// Reconnect policy for the retrying helpers below.
struct RetryPolicy {
  /// Additional connection attempts after the first (0 = fail fast).
  int retries = 0;
  /// Delay before the first retry; doubles on each subsequent attempt.
  int backoff_ms = 100;
  /// Per-connection socket read/write bound (see Client ctor).
  int io_timeout_ms = 0;
};

/// Runs `op` against a fresh connection, reconnecting with exponential
/// backoff when the daemon is unreachable or the connection is lost
/// mid-call (including io_timeout_ms expiries). `op` MUST be idempotent:
/// after a lost ack it runs again against a new connection. A returned
/// queue_full rejection carrying a `retry_after_ms` hint is also
/// retried (admission refused = nothing ran = idempotent), sleeping
/// max(hint, backoff); the final attempt's rejection passes through so
/// callers still see the code. Throws std::runtime_error once every
/// attempt is exhausted without reaching the service.
[[nodiscard]] Json with_retry(std::uint16_t port, const std::string& address,
                              const RetryPolicy& policy,
                              const std::function<Json(Client&)>& op);

/// At-most-once submit across reconnects AND daemon restarts: each
/// attempt first resolves the mission by name (status_by_name) and only
/// submits when the service does not know it — so a resubmit after a
/// lost ack, or against a restarted daemon that replayed its journal,
/// never double-runs the mission.
struct IdempotentSubmit {
  bool ok = false;
  std::uint64_t job = 0;
  /// The name already resolved server-side; no new mission was started.
  bool already_known = false;
  std::string error;  // server/transport message when !ok
  std::string code;   // machine tag (queue_full, draining, ...)
};
[[nodiscard]] IdempotentSubmit submit_idempotent(std::uint16_t port,
                                                 const std::string& address,
                                                 const sched::MissionSpec& spec,
                                                 const RetryPolicy& policy);

/// Watches a mission BY NAME across reconnects: when the event stream
/// drops mid-mission (daemon restart, forwarder failover, socket
/// timeout), a fresh connection re-resolves the name and re-subscribes,
/// so `mpa submit --wait` rides through transparently. A successful
/// re-subscription refills the retry budget — `policy.retries` bounds
/// consecutive FAILED reconnects, not the mission's lifetime. Returns
/// the final status name; throws std::runtime_error once the budget is
/// exhausted without a terminal status.
[[nodiscard]] std::string watch_mission(
    std::uint16_t port, const std::string& address, const std::string& name,
    const RetryPolicy& policy,
    const std::function<void(std::uint64_t waves)>& on_progress = {},
    std::uint64_t every = 1);

}  // namespace ehw::svc
