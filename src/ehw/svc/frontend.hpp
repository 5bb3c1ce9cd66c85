#pragma once
// svc::Frontend — the session layer of the mission service protocol
// (protocol.hpp), shared by svc::Server and svc::Forwarder. It owns the
// listener, the sessions, the frame armor and the handshake; an owner
// supplies its identity members and one handler for its own ops.
//
// Threading model: one acceptor thread polls the listener; each
// connection gets a session thread running the request loop. Progress
// events for watched jobs are written from the JOB's thread (via
// MissionRunner::subscribe) through the session's LineChannel, whose
// write lock keeps frames from interleaving with responses.
//
// Frame armor: an oversize frame is answered "oversize_frame" and a
// close (framing is lost past a frame that never ended), an idle session
// "idle_timeout" and a close, a malformed frame "bad_request" on a
// connection that stays usable.
//
// Before the handler sees a request, the front answers "hello" (greeting
// and reply carry the owner's identity after the fixed service, protocol
// and version fields), refuses other ops until the handshake, and
// answers the process-wide "trace" op. A request "id" is echoed into
// every reply.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "ehw/common/json.hpp"
#include "ehw/obs/metrics.hpp"
#include "ehw/svc/socket.hpp"

namespace ehw::svc {

struct FrontendConfig {
  /// Bind address; loopback by default (the service is an operator-local
  /// daemon — remote backends are a future layer).
  std::string address = "127.0.0.1";
  /// 0 = ephemeral; the chosen port is readable via port().
  std::uint16_t port = 0;
  /// Per-session frame-length bound; 0 = LineChannel::kMaxLine (1 MiB).
  /// An oversize frame gets a clean "oversize_frame" error and a close —
  /// never unbounded buffering.
  std::size_t max_line = 0;
  /// Close sessions that send no request for this long (ms). Watch
  /// streams are exempt once subscribed (they legitimately go quiet).
  /// 0 disables the bound (library/test default — `mpa serve` and
  /// `mpa forward` arm it).
  int idle_timeout_ms = 0;
};

class Frontend {
 public:
  /// Answers one op after the handshake. Returns nullopt when the
  /// handler already wrote its own frames on `channel` (watch).
  using Handler = std::function<std::optional<Json>(
      const std::string& op, const Json& request,
      const std::shared_ptr<LineChannel>& channel)>;

  /// Binds and listens; throws std::runtime_error when the endpoint
  /// cannot be bound. No session is accepted before start(). `identity`
  /// members follow the fixed fields of the greeting and hello reply.
  Frontend(const FrontendConfig& config, Json::Object identity,
           obs::Counter& connections, Handler handler);
  /// close() + join().
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

  /// Starts accepting. The owner calls it last in its constructor, once
  /// everything the handler reads exists.
  void start();

  /// Joins the acceptor, closes the listener and shuts down every
  /// session channel (unblocking their readers). Idempotent.
  void close();
  /// Joins the session threads close() detached from the session list.
  /// Sessions blocked inside a handler finish that request first.
  void join();

  /// Sessions whose thread is still running.
  [[nodiscard]] std::size_t sessions_open() const;

 private:
  struct Session {
    explicit Session(Socket socket)
        : channel(std::make_shared<LineChannel>(std::move(socket))) {}
    /// Shared so watch subscriptions can outlive the session thread (the
    /// channel just starts failing writes once the peer is gone).
    std::shared_ptr<LineChannel> channel;
    std::thread thread;
    std::atomic<bool> done{false};
    bool greeted = false;            // session-thread only
    bool close_after_reply = false;  // session-thread only
  };

  void accept_loop();
  void session_loop(Session* session);
  /// nullopt when the handler already wrote its own frames.
  [[nodiscard]] std::optional<Json> dispatch(Session& session,
                                             const Json& request);
  /// The fixed greeting/hello fields followed by the owner's identity.
  [[nodiscard]] Json with_identity(Json frame) const;

  const FrontendConfig config_;
  const Json::Object identity_;
  obs::Counter& connections_;
  const Handler handler_;
  Listener listener_;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  mutable std::mutex sessions_mutex_;
  std::vector<std::unique_ptr<Session>> sessions_;
  /// Sessions close() took out of sessions_, awaiting join() (the
  /// stopping thread only).
  std::vector<std::unique_ptr<Session>> closing_;
};

}  // namespace ehw::svc
