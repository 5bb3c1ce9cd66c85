#include "ehw/svc/frontend.hpp"

#include "ehw/common/fault.hpp"
#include "ehw/common/version.hpp"
#include "ehw/obs/trace.hpp"
#include "ehw/svc/protocol.hpp"

namespace ehw::svc {
namespace {

/// The process-wide span tracer, one mode per request.
Json handle_trace(const Json& request) {
  obs::Tracer& tracer = obs::Tracer::global();
  const std::string mode = request.get_string("mode", "dump");
  Json response = make_ok();
  if (mode == "arm") {
    tracer.arm();
  } else if (mode == "disarm") {
    tracer.disarm();
  } else if (mode == "clear") {
    tracer.clear();
  } else if (mode == "dump") {
    response.set("trace", tracer.export_chrome());
  } else {
    return make_error(
        "unknown trace mode '" + mode + "' (dump|arm|disarm|clear)",
        "bad_request");
  }
  response.set("armed", obs::Tracer::armed());
  response.set("recorded", tracer.recorded());
  response.set("dropped", tracer.dropped());
  return response;
}

}  // namespace

Frontend::Frontend(const FrontendConfig& config, Json::Object identity,
                   obs::Counter& connections, Handler handler)
    : config_(config),
      identity_(std::move(identity)),
      connections_(connections),
      handler_(std::move(handler)),
      listener_(config_.address, config_.port) {}

Frontend::~Frontend() {
  close();
  join();
}

void Frontend::start() {
  acceptor_ = std::thread([this] { accept_loop(); });
}

void Frontend::close() {
  stopping_.store(true, std::memory_order_relaxed);
  // The acceptor polls with a short timeout and re-checks stopping_, so
  // join it FIRST and only then close the listener fd — closing while
  // the acceptor is inside poll/accept would race on the descriptor.
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();
  // Take the sessions out under the lock but JOIN them outside it (see
  // join()): a session thread may be inside a handler that reads
  // sessions_open(). The acceptor is joined, so nothing else appends.
  std::lock_guard lock(sessions_mutex_);
  for (auto& session : sessions_) {
    session->channel->shutdown();
    closing_.push_back(std::move(session));
  }
  sessions_.clear();
}

void Frontend::join() {
  for (const auto& session : closing_) {
    if (session->thread.joinable()) session->thread.join();
  }
  closing_.clear();
}

std::size_t Frontend::sessions_open() const {
  std::lock_guard lock(sessions_mutex_);
  std::size_t open = 0;
  for (const auto& session : sessions_) {
    if (!session->done.load(std::memory_order_relaxed)) ++open;
  }
  return open;
}

Json Frontend::with_identity(Json frame) const {
  frame.set("service", kServiceName);
  frame.set("protocol", kProtocolVersion);
  frame.set("version", kVersion);
  for (const auto& [key, value] : identity_) frame.set(key, value);
  return frame;
}

void Frontend::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::optional<Socket> socket = listener_.accept_one(/*timeout_ms=*/100);
    if (!socket.has_value()) continue;
    // A client that stops reading must not wedge the job thread writing
    // its progress events (or a session reply) forever: bound the stall,
    // then the channel poisons itself and the subscription goes quiet.
    socket->set_send_timeout(/*timeout_ms=*/10000);
    auto session = std::make_unique<Session>(std::move(*socket));
    Session* raw = session.get();
    {
      std::lock_guard lock(sessions_mutex_);
      // Reap sessions whose threads already finished.
      auto alive = sessions_.begin();
      for (auto& existing : sessions_) {
        if (existing->done.load(std::memory_order_acquire) &&
            existing->thread.joinable()) {
          existing->thread.join();
          continue;
        }
        *alive++ = std::move(existing);
      }
      sessions_.erase(alive, sessions_.end());
      sessions_.push_back(std::move(session));
    }
    connections_.add();
    raw->thread = std::thread([this, raw] { session_loop(raw); });
  }
}

void Frontend::session_loop(Session* session) {
  LineChannel& channel = *session->channel;
  channel.set_max_line(config_.max_line);
  if (config_.idle_timeout_ms > 0) {
    channel.set_recv_timeout(config_.idle_timeout_ms);
  }
  Json greeting = Json::object();
  greeting.set("event", "hello");
  if (channel.write_line(with_identity(std::move(greeting)).dump())) {
    std::string line;
    for (;;) {
      const LineChannel::ReadStatus read = channel.read_frame(line);
      if (read == LineChannel::ReadStatus::kOversize) {
        // Clean protocol error, then close: framing is unrecoverable
        // past a frame that never ended (and the buffer was dropped, so
        // memory stayed bounded).
        const Json response = make_error(
            "frame exceeds the " + std::to_string(channel.max_line()) +
                " byte line limit",
            "oversize_frame");
        static_cast<void>(channel.write_line(response.dump()));
        break;
      }
      // The injected variant (session_idle) drops the request it read:
      // the peer sees what a bound that expired just before its request
      // arrived leaves behind, this reply and then a close.
      if (read == LineChannel::ReadStatus::kTimeout ||
          (read == LineChannel::ReadStatus::kLine &&
           fault::should_fire(fault::Site::kSessionIdle))) {
        const Json response = make_error(
            "idle timeout: no request within " +
                std::to_string(config_.idle_timeout_ms) + " ms",
            "idle_timeout");
        static_cast<void>(channel.write_line(response.dump()));
        break;
      }
      if (read != LineChannel::ReadStatus::kLine) break;  // closed
      Json request;
      try {
        request = Json::parse(line);
        if (!request.is_object()) {
          throw JsonError("request must be a JSON object", 0);
        }
      } catch (const JsonError& e) {
        const Json response = make_error(
            std::string("malformed request: ") + e.what(), "bad_request");
        if (!channel.write_line(response.dump())) break;
        continue;
      }
      std::optional<Json> response = dispatch(*session, request);
      if (response.has_value()) {
        if (const Json* id = request.get("id")) response->set("id", *id);
        if (!channel.write_line(response->dump())) break;
      }
      if (session->close_after_reply) break;
    }
  }
  channel.shutdown();
  session->done.store(true, std::memory_order_release);
}

std::optional<Json> Frontend::dispatch(Session& session,
                                       const Json& request) {
  const Json* op_field = request.get("op");
  if (op_field == nullptr || !op_field->is_string()) {
    return make_error("request is missing string member 'op'", "bad_request");
  }
  const std::string& op = op_field->as_string();
  if (op == "hello") {
    const double protocol = request.get_number("protocol", -1);
    if (protocol != static_cast<double>(kProtocolVersion)) {
      session.close_after_reply = true;
      return make_error("unsupported protocol version (server speaks " +
                            std::to_string(kProtocolVersion) + ")",
                        "unsupported_protocol");
    }
    session.greeted = true;
    return with_identity(make_ok());
  }
  if (!session.greeted) {
    return make_error("handshake required: send {\"op\":\"hello\","
                      "\"protocol\":" +
                          std::to_string(kProtocolVersion) + "} first",
                      "bad_request");
  }
  if (op == "trace") return handle_trace(request);
  return handler_(op, request, session.channel);
}

}  // namespace ehw::svc
