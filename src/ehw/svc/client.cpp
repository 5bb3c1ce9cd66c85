#include "ehw/svc/client.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "ehw/obs/trace.hpp"

namespace ehw::svc {
namespace {

[[noreturn]] void connection_lost() {
  throw std::runtime_error("mission service connection lost");
}

Json parse_frame(const std::string& line) {
  Json frame = Json::parse(line);
  if (!frame.is_object()) {
    throw std::runtime_error("mission service sent a non-object frame");
  }
  return frame;
}

/// Timeouts must land on the raw socket before LineChannel takes
/// ownership — the channel has no fd accessor by design.
Socket connect_with_timeout(const std::string& address, std::uint16_t port,
                            int io_timeout_ms) {
  Socket socket = Socket::connect_to(address, port);
  if (io_timeout_ms > 0) {
    socket.set_recv_timeout(io_timeout_ms);
    socket.set_send_timeout(io_timeout_ms);
  }
  return socket;
}

}  // namespace

Client::Client(std::uint16_t port, const std::string& address,
               int io_timeout_ms)
    : channel_(connect_with_timeout(address, port, io_timeout_ms)) {
  std::string line;
  if (!channel_.read_line(line)) connection_lost();
  const Json greeting = parse_frame(line);
  if (greeting.get_string("event", "") != "hello" ||
      greeting.get_string("service", "") != kServiceName) {
    throw std::runtime_error("peer is not a mission service");
  }
  const double protocol = greeting.get_number("protocol", -1);
  if (protocol != static_cast<double>(kProtocolVersion)) {
    throw std::runtime_error(
        "mission service speaks protocol " + std::to_string(protocol) +
        ", this client speaks " + std::to_string(kProtocolVersion));
  }
  server_version_ = greeting.get_string("version", "?");
  server_instance_id_ = greeting.get_string("instance_id", "");
  const double epoch = greeting.get_number("epoch", 0);
  if (epoch >= 0 && json_number_is_exact_int(epoch)) {
    server_epoch_ = static_cast<std::uint64_t>(epoch);
  }

  Json hello = Json::object();
  hello.set("op", "hello");
  hello.set("protocol", kProtocolVersion);
  const Json response = roundtrip(hello);
  if (!response.get_bool("ok", false)) {
    throw std::runtime_error("mission service rejected handshake: " +
                             response.get_string("error", "unknown error"));
  }
}

Json Client::roundtrip(const Json& request) {
  EHW_TRACE_SPAN("rpc_roundtrip");
  if (!channel_.write_line(request.dump())) connection_lost();
  std::string line;
  while (channel_.read_line(line)) {
    Json frame = parse_frame(line);
    if (frame.get("event") != nullptr) continue;  // stray event frame
    note_reply(frame);
    return frame;
  }
  connection_lost();
}

void Client::note_reply(const Json& reply) {
  if (reply.get_string("code", "") == "idle_timeout") idled_out_ = true;
}

Json Client::request(const Json& request) { return roundtrip(request); }

Client::Submitted Client::submit(const sched::MissionSpec& spec) {
  Json request = Json::object();
  request.set("op", "submit");
  request.set("spec", spec_to_json(spec));
  const Json response = roundtrip(request);
  Submitted submitted;
  submitted.ok = response.get_bool("ok", false);
  if (submitted.ok) {
    submitted.job =
        static_cast<std::uint64_t>(response.get_number("job", 0));
  } else {
    submitted.error = response.get_string("error", "unknown error");
    submitted.code = response.get_string("code", "");
    submitted.retry_after_ms =
        static_cast<std::uint64_t>(response.get_number("retry_after_ms", 0));
  }
  return submitted;
}

Client::BatchSubmitted Client::submit_batch(
    const std::vector<sched::MissionSpec>& specs) {
  Json payload = Json::array();
  for (const sched::MissionSpec& spec : specs) {
    payload.push_back(spec_to_json(spec));
  }
  Json request = Json::object();
  request.set("op", "submit_batch");
  request.set("specs", std::move(payload));
  const Json response = roundtrip(request);
  BatchSubmitted submitted;
  submitted.ok = response.get_bool("ok", false);
  if (!submitted.ok) {
    submitted.error = response.get_string("error", "unknown error");
    submitted.code = response.get_string("code", "");
    submitted.retry_after_ms =
        static_cast<std::uint64_t>(response.get_number("retry_after_ms", 0));
    return submitted;
  }
  const Json* jobs = response.get("jobs");
  if (jobs != nullptr && jobs->is_array()) {
    submitted.jobs.reserve(jobs->as_array().size());
    for (const Json& entry : jobs->as_array()) {
      submitted.jobs.push_back(
          static_cast<std::uint64_t>(entry.get_number("job", 0)));
    }
  }
  // Callers index jobs[i] per spec; never hand them a short array from a
  // malformed ok-response.
  if (submitted.jobs.size() != specs.size()) {
    submitted.ok = false;
    submitted.error = "server acknowledged " +
                      std::to_string(submitted.jobs.size()) + " of " +
                      std::to_string(specs.size()) + " batch specs";
    submitted.code = "bad_response";
    submitted.jobs.clear();
  }
  return submitted;
}

Json Client::job_op(const char* op, std::uint64_t job) {
  Json request = Json::object();
  request.set("op", op);
  request.set("job", job);
  return roundtrip(request);
}

Json Client::named_op(const char* op, const std::string& name) {
  Json request = Json::object();
  request.set("op", op);
  request.set("job", name);
  return roundtrip(request);
}

Json Client::status(std::uint64_t job) { return job_op("status", job); }

Json Client::status_by_name(const std::string& name) {
  return named_op("status", name);
}

Json Client::result(std::uint64_t job) { return job_op("result", job); }

Json Client::result_by_name(const std::string& name) {
  return named_op("result", name);
}

bool Client::cancel(std::uint64_t job) {
  return job_op("cancel", job).get_bool("ok", false);
}

Json Client::list() {
  Json request = Json::object();
  request.set("op", "list");
  return roundtrip(request);
}

Json Client::stats() {
  Json request = Json::object();
  request.set("op", "stats");
  return roundtrip(request);
}

Json Client::drain(bool wait) {
  Json request = Json::object();
  request.set("op", "drain");
  request.set("wait", wait);
  return roundtrip(request);
}

std::string Client::watch(
    std::uint64_t job,
    const std::function<void(std::uint64_t waves)>& on_progress,
    std::uint64_t every, const std::function<void()>& on_subscribed,
    std::uint64_t* done_waves) {
  Json request = Json::object();
  request.set("op", "watch");
  request.set("job", job);
  request.set("every", every);
  return watch_request(std::move(request), on_progress, on_subscribed,
                       done_waves);
}

std::string Client::watch_by_name(
    const std::string& name,
    const std::function<void(std::uint64_t waves)>& on_progress,
    std::uint64_t every, const std::function<void()>& on_subscribed) {
  Json request = Json::object();
  request.set("op", "watch");
  request.set("job", name);
  request.set("every", every);
  return watch_request(std::move(request), on_progress, on_subscribed);
}

std::string Client::watch_request(
    Json request, const std::function<void(std::uint64_t waves)>& on_progress,
    const std::function<void()>& on_subscribed, std::uint64_t* done_waves) {
  if (!channel_.write_line(request.dump())) connection_lost();
  // The server subscribes before acking, so event frames may arrive
  // ahead of the ok-response; handle both in any order.
  bool acked = false;
  bool finished = false;
  std::string final_status;
  std::string line;
  while (channel_.read_line(line)) {
    const Json frame = parse_frame(line);
    if (frame.get("event") != nullptr) {
      const std::string event = frame.get_string("event", "");
      if (event == "progress" && on_progress) {
        on_progress(
            static_cast<std::uint64_t>(frame.get_number("waves", 0)));
      } else if (event == "done") {
        final_status = frame.get_string("status", "?");
        if (done_waves != nullptr) {
          *done_waves =
              static_cast<std::uint64_t>(frame.get_number("waves", 0));
        }
        finished = true;
        if (acked) return final_status;
      }
      continue;
    }
    note_reply(frame);
    if (!frame.get_bool("ok", false)) {
      throw std::runtime_error("watch rejected: " +
                               frame.get_string("error", "unknown error"));
    }
    acked = true;
    if (on_subscribed) on_subscribed();
    if (finished) return final_status;
  }
  connection_lost();
}

ClientPool::Lease ClientPool::lease(std::size_t slot,
                                    const std::string& address,
                                    std::uint16_t port, bool reuse) {
  Lease lease;
  lease.slot = slot;
  for (;;) {
    std::unique_ptr<Client> idle;
    {
      std::lock_guard lock(mutex_);
      Slot& entry = slots_[slot];
      lease.flushes = entry.flushes;
      if (!reuse || entry.idle.empty()) break;
      // Most recent first: the least likely to have idled out.
      idle = std::move(entry.idle.back());
      entry.idle.pop_back();
    }
    // Checked now, not when it was handed back: a server idle timeout or
    // a restart since then left an error frame, EOF or a reset behind.
    if (idle->reusable()) {
      reuses_.add();
      lease.client = std::move(idle);
      lease.reused = true;
      return lease;
    }
  }
  lease.client = std::make_unique<Client>(port, address, io_timeout_ms_);
  connects_.add();
  return lease;
}

void ClientPool::give_back(Lease lease) {
  if (!lease.client->reusable()) return;
  std::lock_guard lock(mutex_);
  Slot& entry = slots_[lease.slot];
  if (entry.retired || entry.flushes != lease.flushes ||
      entry.idle.size() >= kMaxIdle) {
    return;  // the lease closes its connection once the lock is released
  }
  entry.idle.push_back(std::move(lease.client));
}

void ClientPool::flush(std::size_t slot, bool retire) {
  std::vector<std::unique_ptr<Client>> closing;
  std::lock_guard lock(mutex_);
  Slot& entry = slots_[slot];
  ++entry.flushes;
  entry.retired = entry.retired || retire;
  closing.swap(entry.idle);
}

void ClientPool::flush_all() {
  std::vector<std::unique_ptr<Client>> closing;
  std::lock_guard lock(mutex_);
  for (auto& [slot, entry] : slots_) {
    ++entry.flushes;
    for (auto& client : entry.idle) closing.push_back(std::move(client));
    entry.idle.clear();
  }
}

Json with_retry(std::uint16_t port, const std::string& address,
                const RetryPolicy& policy,
                const std::function<Json(Client&)>& op) {
  const int attempts = policy.retries >= 0 ? policy.retries + 1 : 1;
  int delay_ms = policy.backoff_ms > 0 ? policy.backoff_ms : 100;
  std::string last_error = "no attempt made";
  // Serviced-but-rejected queue_full responses with a retry_after_ms
  // hint wait out the hint and try again: admission was refused, so
  // nothing ran and the retry is as idempotent as a reconnect. The last
  // attempt's rejection is returned verbatim so callers see the code.
  std::uint64_t hint_ms = 0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt != 0) {
      const std::uint64_t wait_ms =
          std::max<std::uint64_t>(hint_ms, static_cast<std::uint64_t>(delay_ms));
      std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
      if (delay_ms < 60'000) delay_ms *= 2;  // cap the exponential climb
    }
    hint_ms = 0;
    try {
      Client client(port, address, policy.io_timeout_ms);
      Json response = op(client);
      if (!response.get_bool("ok", false) &&
          response.get_string("code", "") == "queue_full" &&
          attempt + 1 < attempts) {
        const double hint = response.get_number("retry_after_ms", 0);
        if (hint > 0) {
          hint_ms = static_cast<std::uint64_t>(hint);
          last_error = response.get_string("error", "queue_full");
          continue;
        }
      }
      return response;
    } catch (const std::exception& e) {
      last_error = e.what();
    }
  }
  throw std::runtime_error("mission service unreachable after " +
                           std::to_string(attempts) +
                           " attempt(s): " + last_error);
}

IdempotentSubmit submit_idempotent(std::uint16_t port,
                                   const std::string& address,
                                   const sched::MissionSpec& spec,
                                   const RetryPolicy& policy) {
  IdempotentSubmit out;
  try {
    const Json response =
        with_retry(port, address, policy, [&spec](Client& client) -> Json {
          // Probe first: if any incarnation of the daemon (including one
          // that just restarted and replayed its journal) already knows
          // this mission name, the earlier submit landed — a second
          // submit would double-run it.
          Json known = client.status_by_name(spec.name);
          if (known.get_bool("ok", false)) {
            known.set("already_known", true);
            return known;
          }
          Json request = Json::object();
          request.set("op", "submit");
          request.set("spec", spec_to_json(spec));
          return client.request(request);
        });
    out.ok = response.get_bool("ok", false);
    out.already_known = response.get_bool("already_known", false);
    if (out.ok) {
      out.job = static_cast<std::uint64_t>(response.get_number("job", 0));
    } else {
      out.error = response.get_string("error", "unknown error");
      out.code = response.get_string("code", "");
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    out.code = "unreachable";
  }
  return out;
}

std::string watch_mission(
    std::uint16_t port, const std::string& address, const std::string& name,
    const RetryPolicy& policy,
    const std::function<void(std::uint64_t waves)>& on_progress,
    std::uint64_t every) {
  const int attempts = policy.retries >= 0 ? policy.retries + 1 : 1;
  int remaining = attempts;
  int delay_ms = policy.backoff_ms > 0 ? policy.backoff_ms : 100;
  std::string last_error = "no attempt made";
  for (;;) {
    bool subscribed = false;
    try {
      Client client(port, address, policy.io_timeout_ms);
      return client.watch_by_name(name, on_progress, every,
                                  [&subscribed] { subscribed = true; });
    } catch (const std::exception& e) {
      last_error = e.what();
    }
    if (subscribed) {
      // The daemon was alive and streaming before the drop — this is a
      // restart/failover window, not a dead endpoint. Refill the budget:
      // retries bound consecutive failed reconnects, not mission length.
      remaining = attempts;
      delay_ms = policy.backoff_ms > 0 ? policy.backoff_ms : 100;
    } else {
      --remaining;
    }
    if (remaining <= 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    if (delay_ms < 60'000) delay_ms *= 2;
  }
  throw std::runtime_error("watch '" + name + "' lost after " +
                           std::to_string(attempts) +
                           " attempt(s): " + last_error);
}

}  // namespace ehw::svc
