#include "ehw/svc/forwarder.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>

#include "ehw/common/fault.hpp"
#include "ehw/common/persist.hpp"
#include "ehw/common/rng.hpp"
#include "ehw/common/version.hpp"
#include "ehw/obs/trace.hpp"
#include "ehw/sched/checkpoint_store.hpp"
#include "ehw/svc/journal.hpp"

namespace ehw::svc {
namespace {

/// Sums one numeric field of a backend's cached "pool" section into an
/// aggregate object (missing fields count 0).
void sum_field(Json& total, const Json& pool, const char* key) {
  total.set(key, total.get_number(key, 0) + pool.get_number(key, 0));
}

constexpr const char* kPoolFields[] = {
    "arrays",    "free_arrays", "running",   "queued",
    "submitted", "done",        "failed",    "cancelled",
    "quarantined", "healthy",   "preempted", "deadline_expired"};

}  // namespace

template <typename Exchange>
auto Forwarder::southbound(std::size_t backend, Exchange&& exchange,
                           const std::vector<std::string>& fence) {
  const BackendConfig endpoint = backend_config(backend);
  for (bool reuse = true;; reuse = false) {
    ClientPool::Lease lease =
        pool_.lease(backend, endpoint.address, endpoint.port, reuse);
    // The daemon idled the reused session out before the request arrived
    // and never read it: once more, on a fresh connection.
    const auto idled_out = [&] {
      return lease.reused && lease.client->idled_out();
    };
    try {
      auto answer = exchange(*lease.client);
      if (idled_out()) continue;
      pool_.give_back(std::move(lease));
      return answer;
    } catch (const std::exception&) {
      if (idled_out()) continue;
      if (lease.reused && !fence.empty()) {
        // The daemon may hold the request and run it once it resumes (a
        // stall after the write): fence it like a failover would.
        std::lock_guard lock(state_mutex_);
        BackendState& state = backends_[backend];
        if (!state.removed) {
          state.fence_names.insert(state.fence_names.end(), fence.begin(),
                                   fence.end());
        }
      }
      throw;
    }
  }
}

Forwarder::Forwarder(ForwarderConfig config) : config_(std::move(config)) {
  if (config_.backends.empty()) {
    throw std::runtime_error("forwarder needs at least one backend");
  }
  if (config_.poll_ms <= 0) config_.poll_ms = 250;
  if (config_.down_after <= 0) config_.down_after = 1;
  for (const BackendConfig& backend : config_.backends) {
    backend_configs_.push_back(backend);
  }
  backends_.resize(backend_configs_.size());
  // One synchronous poll round before the listener exists: the first
  // submit already has real capacity snapshots to place against, and
  // backends that are down at boot start down (no first-poll grace).
  for (std::size_t i = 0; i < backends_.size(); ++i) poll_backend(i);
  frontend_ = std::make_unique<Frontend>(
      config_, Json::Object{{"role", "forwarder"}}, m_connections_,
      std::bind_front(&Forwarder::handle_request, this));
  poller_ = std::thread([this] { poll_loop(); });
  // Last: a session may read any member (and frontend_) from here on.
  frontend_->start();
}

Forwarder::~Forwarder() { stop(); }

void Forwarder::drain() {
  draining_.store(true, std::memory_order_relaxed);
  std::size_t members = 0;
  {
    std::lock_guard lock(state_mutex_);
    members = backends_.size();
  }
  for (std::size_t i = 0; i < members; ++i) {
    bool reachable;
    {
      std::lock_guard lock(state_mutex_);
      reachable = backends_[i].target.reachable && !backends_[i].removed;
    }
    if (!reachable) continue;
    try {
      static_cast<void>(southbound(
          i, [](Client& client) { return client.drain(/*wait=*/false); }));
    } catch (const std::exception&) {
      // A backend that just died is already not accepting anything.
    }
  }
  state_cv_.notify_all();
}

void Forwarder::stop() {
  if (stopped_) return;
  stopping_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard lock(poll_mutex_);
  }
  poll_cv_.notify_all();
  if (poller_.joinable()) poller_.join();
  frontend_->close();
  // Wake result/watch waiters so they see stopping_ and return.
  state_cv_.notify_all();
  frontend_->join();
  // Last: no session is left to lease or hand back a connection.
  pool_.flush_all();
  stopped_ = true;
}

ForwarderStats Forwarder::forwarder_stats() const {
  ForwarderStats stats;
  stats.submitted = m_submitted_.value();
  stats.rejected = m_rejected_.value();
  stats.failovers = m_failovers_.value();
  stats.failover_resumed = m_failover_resumed_.value();
  stats.fences = m_fences_.value();
  stats.rejoins = m_rejoins_.value();
  stats.shed = m_shed_.value();
  stats.southbound_connects = m_southbound_connects_.value();
  stats.southbound_reuses = m_southbound_reuses_.value();
  std::lock_guard lock(state_mutex_);
  stats.routes = routes_.size();
  for (const BackendState& backend : backends_) {
    if (!backend.removed && backend.target.reachable) ++stats.backends_up;
  }
  stats.draining = draining_.load(std::memory_order_relaxed);
  return stats;
}

void Forwarder::refresh_gauges() {
  const std::uint64_t now_ns = obs::Tracer::now_ns();
  std::lock_guard lock(state_mutex_);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const BackendState& backend = backends_[i];
    const std::string label = "{backend=\"" + std::to_string(i) + "\"}";
    metrics_.gauge("mpa_backend_up" + label)
        .set(backend.target.reachable ? 1.0 : 0.0);
    metrics_.gauge("mpa_backend_polls" + label)
        .set(static_cast<double>(backend.polls));
    if (backend.last_good_poll_ns != 0) {
      metrics_.gauge("mpa_backend_poll_age_ms" + label)
          .set(static_cast<double>(now_ns - backend.last_good_poll_ns) / 1e6);
    }
    metrics_.gauge("mpa_backend_free_arrays" + label)
        .set(static_cast<double>(backend.target.free_arrays));
    metrics_.gauge("mpa_backend_queued" + label)
        .set(static_cast<double>(backend.target.queued));
    metrics_.gauge("mpa_backend_running" + label)
        .set(static_cast<double>(backend.target.running));
    metrics_.gauge("mpa_backend_epoch" + label)
        .set(static_cast<double>(backend.epoch));
    metrics_.gauge("mpa_backend_fences" + label)
        .set(static_cast<double>(backend.fences));
    metrics_.gauge("mpa_backend_rejoins" + label)
        .set(static_cast<double>(backend.rejoins));
  }
  metrics_.gauge("mpa_routes").set(static_cast<double>(routes_.size()));
}

std::string Forwarder::metrics_text() {
  refresh_gauges();
  return metrics_.to_prometheus();
}

BackendConfig Forwarder::backend_config(std::size_t backend) const {
  std::lock_guard lock(state_mutex_);
  return backend_configs_[backend];
}

// --- liveness + placement ---------------------------------------------------

void Forwarder::poll_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    {
      std::unique_lock lock(poll_mutex_);
      poll_cv_.wait_for(lock, std::chrono::milliseconds(config_.poll_ms), [this] {
        return stopping_.load(std::memory_order_relaxed);
      });
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
    const std::uint64_t now_ns = obs::Tracer::now_ns();
    std::vector<std::size_t> due;
    {
      std::lock_guard lock(state_mutex_);
      for (std::size_t i = 0; i < backends_.size(); ++i) {
        const BackendState& backend = backends_[i];
        if (backend.removed) continue;
        // Down backends re-poll on a jittered exponential schedule so a
        // cluster-wide restart doesn't thundering-herd one survivor.
        if (backend.down && now_ns < backend.next_poll_ns) continue;
        due.push_back(i);
      }
    }
    for (const std::size_t i : due) poll_backend(i);
  }
}

void Forwarder::poll_backend(std::size_t index) {
  BackendConfig endpoint;
  {
    std::lock_guard lock(state_mutex_);
    if (index >= backends_.size() || backends_[index].removed) return;
    endpoint = backend_configs_[index];
  }
  Json stats;
  bool ok = false;
  std::string instance_id;
  std::uint64_t epoch = 0;
  try {
    if (fault::should_fire(fault::Site::kPollError)) {
      throw std::runtime_error("injected poll_error fault");
    }
    Client client(endpoint.port, endpoint.address, config_.io_timeout_ms);
    // The greeting doubles as the identity probe: instance_id + epoch.
    instance_id = client.server_instance_id();
    epoch = client.server_epoch();
    if (fault::should_fire(fault::Site::kBackendHello)) {
      throw std::runtime_error("injected backend_hello fault");
    }
    stats = client.stats();
    ok = stats.get_bool("ok", false);
  } catch (const std::exception&) {
    ok = false;
  }
  std::vector<std::shared_ptr<Route>> orphans;
  std::vector<std::string> fence;
  bool revive = false;
  bool cold = false;
  bool taken_down = false;
  std::uint64_t old_epoch = 0;
  {
    std::lock_guard lock(state_mutex_);
    BackendState& backend = backends_[index];
    ++backend.polls;
    if (!ok) {
      ++backend.failures;
      if (backend.down) {
        // Still dead: stretch the re-poll schedule.
        ++backend.backoff_round;
        backend.next_poll_ns =
            obs::Tracer::now_ns() +
            backoff_delay_ns(index, backend.backoff_round);
      } else if (backend.failures >= config_.down_after) {
        orphans = take_down_locked(index);
        taken_down = true;
      }
    } else if (backend.down) {
      // Revival edge: do NOT trust the backend yet. The fence cancels
      // (missions that failed over elsewhere while it was away) must
      // land first — they run outside the lock below.
      revive = true;
      old_epoch = backend.epoch;
      cold = backend.epoch != 0 && (epoch != backend.epoch ||
                                    instance_id != backend.instance_id);
      fence = backend.fence_names;
    }
  }
  if (!ok) {
    if (taken_down) pool_.flush(index);
    for (const std::shared_ptr<Route>& route : orphans) {
      failover_route(route, index);
    }
    return;
  }
  if (revive && !fence.empty()) {
    // Split-brain fence: exactly one execution may reach a terminal
    // result, and the failed-over incarnation already owns each route.
    // Cancel the zombie's copies BY NAME (names survive restarts and
    // journal replays; backend job ids do not) before re-admission.
    try {
      Client client(endpoint.port, endpoint.address, config_.io_timeout_ms);
      for (const std::string& name : fence) {
        Json cancel = Json::object();
        cancel.set("op", "cancel");
        cancel.set("job", name);
        // unknown_job is success too: the revived daemon never knew or
        // already dropped the mission.
        static_cast<void>(client.request(cancel));
      }
    } catch (const std::exception&) {
      // The revival didn't hold still long enough to fence. Keep the
      // names queued and the backend untrusted; the next poll retries.
      return;
    }
  }
  std::lock_guard lock(state_mutex_);
  BackendState& backend = backends_[index];
  if (revive) {
    ++backend.rejoins;
    m_rejoins_.add();
    backend.fences += fence.size();
    if (!fence.empty()) m_fences_.add(fence.size());
    backend.fence_names.clear();
    if (cold) {
      // Epoch moved: a NEW incarnation (restart). Its memo/cache warmth
      // is gone — make sure no affinity survived and start it cold.
      placement_.forget_target(index);
      backend.last_fence =
          "cold rejoin: epoch " + std::to_string(old_epoch) + " -> " +
          std::to_string(epoch) +
          (fence.empty() ? ""
                         : ", fenced " + std::to_string(fence.size()) +
                               " mission(s)");
    } else {
      backend.last_fence =
          fence.empty() ? "warm rejoin (same epoch)"
                        : "warm rejoin: fenced " +
                              std::to_string(fence.size()) +
                              " stalled mission(s)";
    }
    backend.down = false;
    backend.backoff_round = 0;
    backend.next_poll_ns = 0;
  }
  backend.failures = 0;
  backend.instance_id = instance_id;
  backend.epoch = epoch;
  backend.target.reachable = true;
  backend.last_good_poll_ns = obs::Tracer::now_ns();
  // The poll is the truth: whatever the backend accepted is in its
  // own counters now, so the optimistic layer starts over.
  backend.opt_lanes = 0;
  backend.opt_jobs = 0;
  if (const Json* pool = stats.get("pool"); pool != nullptr) {
    backend.pool_json = *pool;
    backend.target.total_arrays =
        static_cast<std::size_t>(pool->get_number("arrays", 0));
    backend.target.free_arrays =
        static_cast<std::size_t>(pool->get_number("free_arrays", 0));
    backend.target.quarantined =
        static_cast<std::size_t>(pool->get_number("quarantined", 0));
    backend.target.queued =
        static_cast<std::size_t>(pool->get_number("queued", 0));
    backend.target.running =
        static_cast<std::size_t>(pool->get_number("running", 0));
  }
}

std::vector<std::shared_ptr<Forwarder::Route>> Forwarder::take_down_locked(
    std::size_t index) {
  BackendState& backend = backends_[index];
  backend.target.reachable = false;
  backend.down = true;
  backend.backoff_round = 0;
  backend.next_poll_ns = obs::Tracer::now_ns() + backoff_delay_ns(index, 0);
  // The dead backend's memo/cache died with it: steering repeats at the
  // corpse would burn the down-detection window for nothing.
  placement_.forget_target(index);
  std::vector<std::shared_ptr<Route>> orphans;
  for (const auto& [id, route] : routes_) {
    if (!route->finished && route->backend == index) {
      orphans.push_back(route);
      // The corpse may still be executing this mission (a stall, not a
      // death). Remember the NAME so a revival is fenced before trust.
      backend.fence_names.push_back(route->spec.name);
    }
  }
  return orphans;
}

void Forwarder::mark_backend_down(std::size_t index) {
  std::vector<std::shared_ptr<Route>> orphans;
  {
    std::lock_guard lock(state_mutex_);
    if (index >= backends_.size() || backends_[index].removed) return;
    BackendState& backend = backends_[index];
    backend.failures = std::max(backend.failures, config_.down_after);
    if (!backend.down) orphans = take_down_locked(index);
  }
  pool_.flush(index);
  for (const std::shared_ptr<Route>& route : orphans) {
    failover_route(route, index);
  }
}

std::vector<sched::PlacementTarget> Forwarder::target_snapshot_locked()
    const {
  std::vector<sched::PlacementTarget> targets(backends_.size());
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const BackendState& backend = backends_[i];
    targets[i] = backend.target;
    if (backend.removed) {
      targets[i].reachable = false;
      continue;
    }
    // Overlay the optimistic layer: submits placed since the last poll
    // that haven't been seen finishing yet still hold their lanes.
    targets[i].free_arrays -=
        std::min(targets[i].free_arrays, backend.opt_lanes);
    targets[i].running += backend.opt_jobs;
  }
  return targets;
}

std::uint64_t Forwarder::backoff_delay_ns(int poll_ms, std::uint64_t seed,
                                          std::size_t index, int round) {
  const std::uint64_t base_ms = static_cast<std::uint64_t>(poll_ms);
  const std::uint64_t cap_ms = std::max<std::uint64_t>(base_ms, 10'000);
  std::uint64_t delay_ms = base_ms << std::min(round, 6);
  delay_ms = std::min(delay_ms, cap_ms);
  // Deterministic jitter in [0, delay/2): a stateless hash keyed by the
  // fault-plan seed, so a seeded chaos run replays the exact schedule.
  const std::uint64_t draw = hash_mix(seed, static_cast<std::uint64_t>(index),
                                      static_cast<std::uint64_t>(round)) %
                             1024;
  const std::uint64_t jitter_ms = delay_ms * draw / 2048;
  return (delay_ms + jitter_ms) * 1'000'000ULL;
}

std::uint64_t Forwarder::backoff_delay_ns(std::size_t index,
                                          int round) const {
  return backoff_delay_ns(config_.poll_ms, fault::plan_seed(), index, round);
}

std::uint64_t Forwarder::shed_retry_after_ms_locked() const {
  // The next poll refreshes capacity, so the hint starts at one poll
  // interval and grows with the backlog the shed is protecting.
  std::uint64_t backlog = 0;
  for (const BackendState& backend : backends_) {
    if (backend.removed) continue;
    backlog += backend.target.queued + backend.opt_jobs;
  }
  const std::uint64_t hint =
      static_cast<std::uint64_t>(config_.poll_ms) + 25 * backlog;
  return std::clamp<std::uint64_t>(hint, 100, 60'000);
}

sched::PlacementPolicy::Decision Forwarder::place_locked(
    const sched::MissionSpec& spec) {
  const std::vector<sched::PlacementTarget> targets =
      target_snapshot_locked();
  const sched::PlacementPolicy::Decision decision = placement_.place(
      sched::PlacementPolicy::fingerprint(spec), spec.lanes, targets);
  if (decision.ok) {
    // Optimistic bump: polls refresh the truth, but a burst of submits
    // between polls must not all pile onto the same snapshot.
    BackendState& winner = backends_[decision.target];
    winner.opt_lanes += spec.lanes;
    ++winner.opt_jobs;
  }
  return decision;
}

void Forwarder::release_route_locked(Route& route) {
  if (route.capacity_released) return;
  route.capacity_released = true;
  if (route.backend >= backends_.size()) return;
  BackendState& backend = backends_[route.backend];
  backend.opt_lanes -= std::min(backend.opt_lanes, route.spec.lanes);
  if (backend.opt_jobs > 0) --backend.opt_jobs;
}

// --- failover ---------------------------------------------------------------

void Forwarder::failover_route(const std::shared_ptr<Route>& route,
                               std::size_t dead_backend) {
  // The backend's journal holds the mission's latest generation-boundary
  // checkpoint (job-<id>.ckpt sidecar). Reading it is what turns "the
  // machine died" into "the mission hopped hosts mid-flight".
  Json resume;
  bool have_resume = false;
  const std::string dir = backend_config(dead_backend).journal_dir;
  std::uint64_t backend_job = 0;
  {
    std::lock_guard lock(state_mutex_);
    backend_job = route->backend_job;
  }
  if (!dir.empty()) {
    const std::string path =
        MissionJournal::checkpoint_path_in(dir, backend_job);
    if (file_exists(path)) {
      sched::MissionSpec saved_spec;
      platform::MissionCheckpoint checkpoint;
      if (sched::load_mission_checkpoint(path, saved_spec, checkpoint)
              .empty() &&
          saved_spec.name == route->spec.name) {
        resume = platform::mission_checkpoint_to_json(checkpoint);
        have_resume = true;
      }
      // Mismatched or unreadable state is dropped: a from-scratch rerun
      // is still bit-identical, resuming someone else's state is not.
    }
  }
  sched::PlacementPolicy::Decision decision;
  {
    std::lock_guard lock(state_mutex_);
    decision = place_locked(route->spec);
  }
  if (!decision.ok) {
    finish_route_failed(route, "no surviving backend can host " +
                                   std::to_string(route->spec.lanes) +
                                   " lane(s): " + decision.error);
    return;
  }
  try {
    Json request = Json::object();
    request.set("op", "submit");
    request.set("spec", spec_to_json(route->spec));
    if (have_resume) request.set("resume", resume);
    const Json response = southbound(
        decision.target,
        [&](Client& client) { return client.request(request); },
        {route->spec.name});
    if (!response.get_bool("ok", false)) {
      finish_route_failed(
          route, "failover submit rejected: " +
                     response.get_string("error", "unknown error"));
      return;
    }
    {
      std::lock_guard lock(state_mutex_);
      route->backend = decision.target;
      route->backend_job =
          static_cast<std::uint64_t>(response.get_number("job", 0));
      route->placed_epoch = backends_[decision.target].epoch;
      // The new incarnation holds the winner's optimistic bump until it
      // is seen terminal, and is live until then.
      route->capacity_released = false;
      ++route->generation;
      ++route->failovers;
    }
    m_failovers_.add();
    if (have_resume) m_failover_resumed_.add();
    state_cv_.notify_all();
  } catch (const std::exception& e) {
    finish_route_failed(route,
                        std::string("failover submit failed: ") + e.what());
  }
}

void Forwarder::finish_route_failed(const std::shared_ptr<Route>& route,
                                    const std::string& error) {
  Json body = Json::object();
  body.set("ok", true);
  body.set("status", status_name(sched::JobStatus::kFailed));
  body.set("error", "failover failed: " + error);
  {
    std::lock_guard lock(state_mutex_);
    body.set("job", route->id);
    body.set("name", route->spec.name);
    body.set("kind", sched::kind_name(route->spec.kind));
    route->finished = true;
    route->final_status = status_name(sched::JobStatus::kFailed);
    route->final_result = body.dump();
    release_route_locked(*route);
    ++route->generation;
  }
  state_cv_.notify_all();
}

// --- northbound ops ---------------------------------------------------------

std::optional<Json> Forwarder::handle_request(
    const std::string& op, const Json& request,
    const std::shared_ptr<LineChannel>& channel) {
  if (op == "submit") return handle_submit(request);
  if (op == "submit_batch") return handle_submit_batch(request);
  if (op == "status") return handle_status(request);
  if (op == "result") return handle_result(request);
  if (op == "cancel") return handle_cancel(request);
  if (op == "list") return handle_list();
  if (op == "stats") return handle_stats();
  if (op == "health") return handle_health();
  if (op == "watch") return handle_watch(channel, request);
  if (op == "drain") return handle_drain(request);
  if (op == "backend") return handle_backend(request);
  return make_error("unknown op '" + op + "'", "bad_request");
}

Json Forwarder::handle_submit(const Json& request) {
  const Json* spec_field = request.get("spec");
  if (spec_field == nullptr) {
    return make_error("submit needs a 'spec' object", "bad_request");
  }
  std::vector<sched::MissionSpec> specs(1);
  const std::string spec_error = spec_from_json(*spec_field, specs[0]);
  if (!spec_error.empty()) return make_error(spec_error, "bad_spec");
  std::vector<Admitted> admitted;
  if (std::optional<Json> refusal = admit(specs, admitted)) return *refusal;
  Json response = make_ok();
  response.set("job", admitted[0].job);
  response.set("name", specs[0].name);
  response.set("backend", static_cast<std::uint64_t>(admitted[0].backend));
  if (admitted[0].affinity) response.set("affinity", true);
  return response;
}

Json Forwarder::handle_submit_batch(const Json& request) {
  std::vector<sched::MissionSpec> specs;
  const std::string parse_error = batch_specs_from_json(request, specs);
  if (!parse_error.empty()) return make_error(parse_error, "bad_spec");
  std::vector<Admitted> admitted;
  if (std::optional<Json> refusal = admit(specs, admitted)) return *refusal;
  Json jobs = Json::array();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    Json entry = Json::object();
    entry.set("job", admitted[i].job);
    entry.set("name", specs[i].name);
    entry.set("backend", static_cast<std::uint64_t>(admitted[i].backend));
    jobs.push_back(std::move(entry));
  }
  Json response = make_ok();
  response.set("jobs", std::move(jobs));
  return response;
}

std::optional<Json> Forwarder::admit(
    const std::vector<sched::MissionSpec>& specs,
    std::vector<Admitted>& admitted) {
  const std::size_t incoming = specs.size();
  if (draining_.load(std::memory_order_relaxed)) {
    m_rejected_.add(incoming);
    return make_error("cluster is draining; not accepting new missions",
                      "draining");
  }
  std::vector<sched::PlacementPolicy::Decision> decisions(incoming);
  {
    std::lock_guard lock(state_mutex_);
    const std::vector<sched::PlacementTarget> targets =
        target_snapshot_locked();
    std::size_t widest = 0;  // the largest pool among reachable members
    for (const sched::PlacementTarget& target : targets) {
      if (target.reachable) widest = std::max(widest, target.total_arrays);
    }
    std::size_t narrowest = specs[0].lanes;
    bool low_priority = true;
    for (const sched::MissionSpec& spec : specs) {
      // Wider than every member's pool: a spec error, as on a daemon
      // (no wait makes it fit, so it is neither shed nor queued).
      if (widest != 0 && spec.lanes > widest) {
        m_rejected_.add(incoming);
        return make_error("lanes=" + std::to_string(spec.lanes) + " of '" +
                              spec.name + "' exceeds every backend's pool (" +
                              std::to_string(widest) + " arrays at most)",
                          "bad_spec");
      }
      narrowest = std::min(narrowest, spec.lanes);
      low_priority = low_priority && spec.priority <= 0;
    }
    // Brownout shed: when every backend is saturated or cold, placing
    // default-priority missions would only bury them in someone's queue.
    // Shed them with explicit backpressure instead; a spec with priority
    // > 0 rides through and queues. Admission is atomic, so a batch is
    // shed whole, judged by its narrowest spec.
    if (low_priority &&
        sched::PlacementPolicy::saturated(targets, narrowest)) {
      m_rejected_.add(incoming);
      m_shed_.add(incoming);
      Json response = make_error(
          "cluster saturated: every backend is full or down; low-priority "
          "submit shed",
          "queue_full");
      response.set("shed", true);
      response.set("retry_after_ms", shed_retry_after_ms_locked());
      return response;
    }
    for (std::size_t i = 0; i < incoming; ++i) {
      decisions[i] = place_locked(specs[i]);
      if (!decisions[i].ok) {
        m_rejected_.add(incoming);
        return make_error("no backend can take '" + specs[i].name +
                              "': " + decisions[i].error,
                          "no_backend");
      }
    }
  }
  // Southbound OUTSIDE the lock (network IO): one submit_batch per
  // backend, spec order kept within each. Admission is atomic within a
  // backend but not across the cluster: on a refusal the specs other
  // backends accepted are cancelled best-effort, and the refusal is
  // relayed as the backend gave it (its retry_after_ms included).
  std::map<std::size_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < incoming; ++i) {
    groups[decisions[i].target].push_back(i);
  }
  std::vector<std::uint64_t> backend_jobs(incoming);
  std::vector<std::pair<std::size_t, std::uint64_t>> accepted;
  std::optional<Json> refusal;
  for (const auto& [backend, indices] : groups) {
    std::vector<sched::MissionSpec> group;
    std::vector<std::string> names;
    for (const std::size_t i : indices) {
      group.push_back(specs[i]);
      names.push_back(specs[i].name);
    }
    Client::BatchSubmitted batch;
    try {
      batch = southbound(
          backend, [&](Client& client) { return client.submit_batch(group); },
          names);
    } catch (const std::exception& e) {
      refusal = make_error("backend " + std::to_string(backend) +
                               " unreachable: " + e.what(),
                           "no_backend");
      break;
    }
    if (!batch.ok) {
      refusal = make_error(batch.error, batch.code);
      if (batch.retry_after_ms != 0) {
        refusal->set("rejected", batch.code);
        refusal->set("retry_after_ms", batch.retry_after_ms);
      }
      break;
    }
    for (std::size_t k = 0; k < indices.size(); ++k) {
      backend_jobs[indices[k]] = batch.jobs[k];
      accepted.emplace_back(backend, batch.jobs[k]);
    }
  }
  if (refusal.has_value()) {
    for (const auto& [backend, backend_job] : accepted) {
      try {
        static_cast<void>(southbound(backend, [&](Client& client) {
          return client.cancel(backend_job);
        }));
      } catch (const std::exception&) {
        // The cancel is advisory; the mission just runs to completion.
      }
    }
    m_rejected_.add(incoming);
    return refusal;
  }
  admitted.clear();
  {
    std::lock_guard lock(state_mutex_);
    for (std::size_t i = 0; i < incoming; ++i) {
      auto route = std::make_shared<Route>();
      route->id = next_id_++;
      route->spec = specs[i];
      route->backend = decisions[i].target;
      route->backend_job = backend_jobs[i];
      route->placed_epoch = backends_[route->backend].epoch;
      routes_.emplace(route->id, route);
      admitted.push_back(
          Admitted{route->id, route->backend, decisions[i].affinity_hit});
    }
    prune_finished_locked();
  }
  m_submitted_.add(incoming);
  return std::nullopt;
}

std::shared_ptr<Forwarder::Route> Forwarder::find_route(
    const Json& request, std::string& error) const {
  std::lock_guard lock(state_mutex_);
  return find_record(routes_, request, error);
}

void Forwarder::prune_finished_locked() {
  // Finished = the front holds the terminal answer, or saw the route
  // terminal on its current incarnation. Fence names live per backend,
  // so an evicted route never weakens a split-brain fence.
  prune_finished(routes_, kMaxRoutes, [](const Route& route) {
    return route.finished || route.capacity_released;
  });
}

Json Forwarder::handle_status(const Json& request) {
  std::string error;
  const std::shared_ptr<Route> route = find_route(request, error);
  if (route == nullptr) return make_error(error, "unknown_job");
  std::size_t backend = 0;
  std::uint64_t backend_job = 0;
  Json finished;  // the reply, once the route's answer is committed
  std::string answer;
  {
    // A finished route answers from its committed answer, with the
    // fields a daemon's status carries for a finished job.
    std::lock_guard lock(state_mutex_);
    if (route->finished) {
      finished = make_ok();
      finished.set("job", route->id);
      finished.set("name", route->spec.name);
      finished.set("kind", sched::kind_name(route->spec.kind));
      finished.set("lanes", static_cast<std::uint64_t>(route->spec.lanes));
      finished.set("status", route->final_status);
      finished.set("waves", route->final_waves);
      answer = route->final_result;
    } else {
      backend = route->backend;
      backend_job = route->backend_job;
    }
  }
  if (finished.is_object()) {
    const Json committed = Json::parse(answer);
    if (const Json* sim_ns = committed.get("sim_ns")) {
      finished.set("sim_ns", *sim_ns);
    }
    return finished;
  }
  try {
    Json response = southbound(
        backend, [&](Client& client) { return client.status(backend_job); });
    const std::string status = response.get_string("status", "");
    if (status != "queued" && status != "running" && status != "preempted" &&
        response.get_bool("ok", false)) {
      std::lock_guard lock(state_mutex_);
      if (route->backend == backend) release_route_locked(*route);
    }
    response.set("job", route->id);  // clients see the front id
    response.set("backend", static_cast<std::uint64_t>(backend));
    return response;
  } catch (const std::exception& e) {
    return make_error("backend " + std::to_string(backend) +
                          " unreachable: " + e.what(),
                      "backend_down");
  }
}

Json Forwarder::handle_result(const Json& request) {
  std::string error;
  const std::shared_ptr<Route> route = find_route(request, error);
  if (route == nullptr) return make_error(error, "unknown_job");
  // A finished route's answer, copied under the lock, parsed outside it.
  const auto final_answer = [&](std::unique_lock<std::mutex>& lock) {
    const std::string frame = route->final_result;
    lock.unlock();
    return Json::parse(frame);
  };
  for (;;) {
    std::size_t backend;
    std::uint64_t backend_job;
    std::uint64_t generation;
    {
      std::unique_lock lock(state_mutex_);
      if (route->finished) return final_answer(lock);
      backend = route->backend;
      backend_job = route->backend_job;
      generation = route->generation;
    }
    bool got = false;
    Json response;
    try {
      // Unbounded read: this wait follows the mission. A dying backend
      // resets the connection; an in-process failover moves the route's
      // generation and this incarnation's answer is discarded below.
      response = southbound(backend, [&](Client& client) {
        client.set_recv_timeout(0);
        Json answer = client.result(backend_job);
        client.set_recv_timeout(config_.io_timeout_ms);
        return answer;
      });
      got = true;
    } catch (const std::exception&) {
      got = false;
    }
    std::unique_lock lock(state_mutex_);
    if (route->finished) return final_answer(lock);
    if (route->generation != generation) continue;  // re-resolve and rewait
    if (got) {
      response.set("job", route->id);
      response.set("name", route->spec.name);
      response.set("backend", static_cast<std::uint64_t>(backend));
      // A refusal (unknown_job, a session error) answers this call but is
      // no terminal result: the route stays as it is.
      if (!response.get_bool("ok", false)) return response;
      release_route_locked(*route);  // terminal southbound: lanes are free
      // First terminal answer WINS the route: concurrent waiters and any
      // zombie incarnation that later wakes up all serve this exact
      // payload, so exactly one execution's result is ever observable.
      route->finished = true;
      route->final_status = response.get_string("status", "");
      route->final_waves =
          static_cast<std::uint64_t>(response.get_number("waves", 0));
      route->final_result = response.dump();
      state_cv_.notify_all();
      return response;
    }
    // Connection lost with the route still on this incarnation: wait for
    // the poller to declare the backend down and fail the route over (or
    // for a transient blip to pass), then try again.
    state_cv_.wait_for(lock, std::chrono::milliseconds(250), [&] {
      return route->finished || route->generation != generation ||
             stopping_.load(std::memory_order_relaxed);
    });
    if (stopping_.load(std::memory_order_relaxed) && !route->finished &&
        route->generation == generation) {
      return make_error("forwarder stopping", "backend_down");
    }
  }
}

Json Forwarder::handle_cancel(const Json& request) {
  std::string error;
  const std::shared_ptr<Route> route = find_route(request, error);
  if (route == nullptr) return make_error(error, "unknown_job");
  std::size_t backend;
  std::uint64_t backend_job;
  {
    std::lock_guard lock(state_mutex_);
    if (route->finished) {
      Json response = make_ok();
      response.set("job", route->id);
      response.set("status", route->final_status);
      return response;
    }
    backend = route->backend;
    backend_job = route->backend_job;
  }
  try {
    Json cancel = Json::object();
    cancel.set("op", "cancel");
    cancel.set("job", backend_job);
    Json response = southbound(
        backend, [&](Client& client) { return client.request(cancel); });
    response.set("job", route->id);
    return response;
  } catch (const std::exception& e) {
    return make_error("backend " + std::to_string(backend) +
                          " unreachable: " + e.what(),
                      "backend_down");
  }
}

Json Forwarder::handle_list() {
  struct Row {
    std::shared_ptr<Route> route;
    std::size_t backend = 0;
    std::uint64_t backend_job = 0;
    std::uint64_t placed_epoch = 0;
    std::uint64_t failovers = 0;
    bool finished = false;
    std::string status;
    std::uint64_t waves = 0;
  };
  std::vector<Row> rows;
  {
    std::lock_guard lock(state_mutex_);
    rows.reserve(routes_.size());
    for (const auto& [id, route] : routes_) {
      Row row;
      row.route = route;
      row.backend = route->backend;
      row.backend_job = route->backend_job;
      row.placed_epoch = route->placed_epoch;
      row.failovers = route->failovers;
      row.finished = route->finished;
      if (route->finished) {
        row.status = route->final_status;
        row.waves = route->final_waves;
      }
      rows.push_back(std::move(row));
    }
  }
  for (Row& row : rows) {
    if (row.finished) continue;
    try {
      const Json status = southbound(row.backend, [&](Client& client) {
        return client.status(row.backend_job);
      });
      row.status = status.get_string("status", "unknown");
      row.waves = static_cast<std::uint64_t>(status.get_number("waves", 0));
    } catch (const std::exception&) {
      row.status = "unreachable";
    }
  }
  Json jobs = Json::array();
  for (const Row& row : rows) {
    Json entry = Json::object();
    entry.set("job", row.route->id);
    entry.set("name", row.route->spec.name);
    entry.set("kind", sched::kind_name(row.route->spec.kind));
    entry.set("lanes", static_cast<std::uint64_t>(row.route->spec.lanes));
    entry.set("status", row.status);
    entry.set("waves", row.waves);
    entry.set("backend", static_cast<std::uint64_t>(row.backend));
    if (row.placed_epoch != 0) entry.set("epoch", row.placed_epoch);
    if (row.failovers != 0) entry.set("failovers", row.failovers);
    jobs.push_back(std::move(entry));
  }
  Json response = make_ok();
  response.set("jobs", std::move(jobs));
  response.set("cluster", true);
  return response;
}

Json Forwarder::handle_stats() {
  Json backends = Json::array();
  Json pool = Json::object();
  std::size_t backends_up = 0;
  std::size_t members = 0;
  const std::uint64_t now_ns = obs::Tracer::now_ns();
  {
    std::lock_guard lock(state_mutex_);
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      const BackendState& backend = backends_[i];
      Json entry = Json::object();
      entry.set("backend", static_cast<std::uint64_t>(i));
      entry.set("address", backend_configs_[i].address);
      entry.set("port",
                static_cast<std::uint64_t>(backend_configs_[i].port));
      entry.set("reachable", backend.target.reachable);
      entry.set("polls", backend.polls);
      if (backend.removed) {
        entry.set("removed", true);
        backends.push_back(std::move(entry));
        continue;
      }
      ++members;
      // Additive: membership identity + fence history per backend.
      if (!backend.instance_id.empty()) {
        entry.set("instance_id", backend.instance_id);
        entry.set("epoch", backend.epoch);
      }
      if (backend.rejoins != 0) entry.set("rejoins", backend.rejoins);
      if (backend.fences != 0) entry.set("fences", backend.fences);
      if (!backend.last_fence.empty()) {
        entry.set("last_fence", backend.last_fence);
      }
      // Additive: how old the placement/liveness snapshot is.
      if (backend.last_good_poll_ns != 0) {
        entry.set("poll_age_ms",
                  static_cast<std::uint64_t>(
                      (now_ns - backend.last_good_poll_ns) / 1000000));
      }
      if (backend.target.reachable) ++backends_up;
      if (backend.pool_json.is_object()) {
        for (const char* field : kPoolFields) {
          entry.set(field, backend.pool_json.get_number(field, 0));
          if (backend.target.reachable) {
            sum_field(pool, backend.pool_json, field);
          }
        }
      }
      backends.push_back(std::move(entry));
    }
  }
  const sched::PlacementPolicy::Stats placement_stats = placement_.stats();
  Json placement = Json::object();
  placement.set("backends", static_cast<std::uint64_t>(members));
  placement.set("placed", placement_stats.placed);
  placement.set("affinity_hits", placement_stats.affinity_hits);
  placement.set("spills", placement_stats.spills);

  const ForwarderStats stats = forwarder_stats();
  Json fwd = Json::object();
  fwd.set("protocol", kProtocolVersion);
  fwd.set("version", kVersion);
  fwd.set("submitted", stats.submitted);
  fwd.set("rejected", stats.rejected);
  fwd.set("failovers", stats.failovers);
  fwd.set("failover_resumed", stats.failover_resumed);
  fwd.set("fences", stats.fences);
  fwd.set("rejoins", stats.rejoins);
  fwd.set("shed", stats.shed);
  fwd.set("southbound_connects", stats.southbound_connects);
  fwd.set("southbound_reuses", stats.southbound_reuses);
  fwd.set("routes", static_cast<std::uint64_t>(stats.routes));
  fwd.set("backends_up", static_cast<std::uint64_t>(backends_up));
  fwd.set("draining", stats.draining);

  Json cluster = Json::object();
  cluster.set("backends", std::move(backends));

  Json response = make_ok();
  response.set("role", "forwarder");
  response.set("pool", std::move(pool));  // aggregate, generic tooling
  response.set("placement", std::move(placement));
  response.set("forwarder", std::move(fwd));
  response.set("cluster", std::move(cluster));
  return response;
}

Json Forwarder::handle_health() {
  Json backends = Json::array();
  double healthy = 0;
  double quarantined = 0;
  std::size_t unreachable = 0;
  std::size_t stale = 0;
  const std::uint64_t now_ns = obs::Tracer::now_ns();
  // Reachable but last GOOD poll older than 2x the poll cadence: the
  // placement snapshot is suspect even though the backend answers. Stale
  // is a warning, down is a failure — the health op separates them.
  const std::uint64_t stale_after_ms =
      2 * static_cast<std::uint64_t>(config_.poll_ms);
  struct Probe {
    std::size_t index = 0;
    BackendConfig endpoint;
    bool reachable = false;
    bool removed = false;
    std::uint64_t last_good_ns = 0;
    std::uint64_t epoch = 0;
    std::string instance_id;
    std::string last_fence;
  };
  std::vector<Probe> probes;
  {
    std::lock_guard lock(state_mutex_);
    probes.reserve(backends_.size());
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      Probe probe;
      probe.index = i;
      probe.endpoint = backend_configs_[i];
      probe.reachable = backends_[i].target.reachable;
      probe.removed = backends_[i].removed;
      probe.last_good_ns = backends_[i].last_good_poll_ns;
      probe.epoch = backends_[i].epoch;
      probe.instance_id = backends_[i].instance_id;
      probe.last_fence = backends_[i].last_fence;
      probes.push_back(std::move(probe));
    }
  }
  for (const Probe& probe : probes) {
    bool reachable = probe.reachable;
    Json entry = Json::object();
    entry.set("backend", static_cast<std::uint64_t>(probe.index));
    entry.set("address", probe.endpoint.address);
    entry.set("port", static_cast<std::uint64_t>(probe.endpoint.port));
    if (probe.removed) {
      // Tombstones are membership history, not failures: visible but
      // never probed and not counted unreachable.
      entry.set("removed", true);
      entry.set("reachable", false);
      backends.push_back(std::move(entry));
      continue;
    }
    if (probe.epoch != 0) {
      entry.set("epoch", probe.epoch);
      entry.set("instance_id", probe.instance_id);
    }
    if (!probe.last_fence.empty()) {
      entry.set("last_fence", probe.last_fence);
    }
    std::uint64_t poll_age_ms = 0;
    const std::uint64_t last_good_ns = probe.last_good_ns;
    if (last_good_ns != 0) {
      poll_age_ms = (now_ns - last_good_ns) / 1000000;
      entry.set("poll_age_ms", poll_age_ms);
    }
    if (reachable) {
      try {
        Json request = Json::object();
        request.set("op", "health");
        const Json health = southbound(probe.index, [&](Client& client) {
          return client.request(request);
        });
        entry.set("reachable", true);
        entry.set("healthy", health.get_number("healthy", 0));
        entry.set("quarantined", health.get_number("quarantined", 0));
        entry.set("preempted", health.get_number("preempted", 0));
        entry.set("migrations", health.get_number("migrations", 0));
        healthy += health.get_number("healthy", 0);
        quarantined += health.get_number("quarantined", 0);
        const bool is_stale =
            last_good_ns == 0 || poll_age_ms > stale_after_ms;
        entry.set("stale", is_stale);
        if (is_stale) ++stale;
      } catch (const std::exception&) {
        reachable = false;
      }
    }
    if (!reachable) {
      entry.set("reachable", false);
      ++unreachable;
    }
    backends.push_back(std::move(entry));
  }
  Json response = make_ok();
  response.set("cluster", true);
  response.set("backends", std::move(backends));
  response.set("healthy", healthy);
  response.set("quarantined", quarantined);
  response.set("unreachable", static_cast<std::uint64_t>(unreachable));
  response.set("stale", static_cast<std::uint64_t>(stale));
  return response;
}

Json Forwarder::handle_backend(const Json& request) {
  const std::string action = request.get_string("action", "list");
  if (action == "list") {
    Json backends = Json::array();
    std::lock_guard lock(state_mutex_);
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      const BackendState& backend = backends_[i];
      Json entry = Json::object();
      entry.set("backend", static_cast<std::uint64_t>(i));
      entry.set("address", backend_configs_[i].address);
      entry.set("port",
                static_cast<std::uint64_t>(backend_configs_[i].port));
      entry.set("reachable", backend.target.reachable);
      entry.set("removed", backend.removed);
      if (!backend.instance_id.empty()) {
        entry.set("instance_id", backend.instance_id);
        entry.set("epoch", backend.epoch);
      }
      entry.set("rejoins", backend.rejoins);
      entry.set("fences", backend.fences);
      if (!backend.last_fence.empty()) {
        entry.set("last_fence", backend.last_fence);
      }
      backends.push_back(std::move(entry));
    }
    Json response = make_ok();
    response.set("backends", std::move(backends));
    return response;
  }
  if (action == "add") {
    const double port_field = request.get_number("port", 0);
    if (!json_number_is_exact_int(port_field) || port_field <= 0 ||
        port_field > 65535) {
      return make_error("backend add needs a 'port' in [1, 65535]",
                        "bad_request");
    }
    BackendConfig endpoint;
    endpoint.address = request.get_string("address", "127.0.0.1");
    endpoint.port = static_cast<std::uint16_t>(port_field);
    endpoint.journal_dir = request.get_string("journal", "");
    std::size_t index;
    {
      std::lock_guard lock(state_mutex_);
      index = backends_.size();
      backend_configs_.push_back(endpoint);
      backends_.emplace_back();
    }
    // Immediate poll: the new member is placeable (or visibly failing)
    // before the add returns, not one poll interval later.
    poll_backend(index);
    Json response = make_ok();
    response.set("backend", static_cast<std::uint64_t>(index));
    {
      std::lock_guard lock(state_mutex_);
      response.set("reachable", backends_[index].target.reachable);
      if (backends_[index].epoch != 0) {
        response.set("epoch", backends_[index].epoch);
      }
    }
    return response;
  }
  if (action == "remove") {
    const double index_field = request.get_number("backend", -1);
    if (!json_number_is_exact_int(index_field) || index_field < 0) {
      return make_error("backend remove needs a 'backend' index",
                        "bad_request");
    }
    const std::size_t index = static_cast<std::size_t>(index_field);
    std::vector<std::shared_ptr<Route>> orphans;
    {
      std::lock_guard lock(state_mutex_);
      if (index >= backends_.size()) {
        return make_error("no backend " + std::to_string(index),
                          "bad_request");
      }
      if (backends_[index].removed) {
        Json response = make_ok();
        response.set("backend", static_cast<std::uint64_t>(index));
        response.set("removed", true);
        return response;
      }
      std::size_t members = 0;
      for (const BackendState& backend : backends_) {
        if (!backend.removed) ++members;
      }
      if (members <= 1) {
        return make_error("cannot remove the last backend", "bad_request");
      }
      orphans = take_down_locked(index);
      backends_[index].removed = true;
      // A tombstone never revives, so there is nothing to fence later.
      backends_[index].fence_names.clear();
    }
    // Retired: a connection still leased to the slot (a result wait that
    // outlives the evacuation) is closed when handed back.
    pool_.flush(index, /*retire=*/true);
    // Evacuate: the removed member's unfinished routes fail over to the
    // survivors exactly like a death would move them.
    for (const std::shared_ptr<Route>& route : orphans) {
      failover_route(route, index);
    }
    Json response = make_ok();
    response.set("backend", static_cast<std::uint64_t>(index));
    response.set("removed", true);
    response.set("evacuated", static_cast<std::uint64_t>(orphans.size()));
    return response;
  }
  return make_error(
      "unknown backend action '" + action + "' (add|remove|list)",
      "bad_request");
}

std::optional<Json> Forwarder::handle_watch(
    const std::shared_ptr<LineChannel>& channel, const Json& request) {
  std::string error;
  const std::shared_ptr<Route> route = find_route(request, error);
  if (route == nullptr) return make_error(error, "unknown_job");
  const double every_field = request.get_number("every", 1);
  const std::uint64_t every =
      json_number_is_exact_int(every_field) && every_field >= 1
          ? static_cast<std::uint64_t>(every_field)
          : 1;
  std::uint64_t front_id;
  {
    std::lock_guard lock(state_mutex_);
    front_id = route->id;
  }
  Json ack = make_ok();
  ack.set("job", front_id);
  {
    std::lock_guard lock(state_mutex_);
    ack.set("watching", route->spec.name);
  }
  if (const Json* id = request.get("id")) ack.set("id", *id);
  bool acked = false;
  const auto send_ack = [&] {
    if (acked) return;
    acked = true;
    static_cast<void>(channel->write_line(ack.dump()));
  };
  for (;;) {
    std::size_t backend;
    std::uint64_t backend_job;
    std::uint64_t generation;
    {
      std::lock_guard lock(state_mutex_);
      if (route->finished) {
        send_ack();
        Json frame = Json::object();
        frame.set("event", "done");
        frame.set("job", front_id);
        frame.set("status", route->final_status);
        frame.set("waves", route->final_waves);
        static_cast<void>(channel->write_line(frame.dump()));
        return std::nullopt;
      }
      backend = route->backend;
      backend_job = route->backend_job;
      generation = route->generation;
    }
    std::string final_status;
    std::uint64_t final_waves = 0;
    bool got = false;
    try {
      // Unbounded read, same as result: the stream follows the mission.
      // The connection goes back only after the stream's terminal frame.
      final_status = southbound(backend, [&](Client& client) {
        client.set_recv_timeout(0);
        std::string status = client.watch(
            backend_job,
            [&](std::uint64_t waves) {
              send_ack();  // subscribed southbound -> northbound is live
              Json frame = Json::object();
              frame.set("event", "progress");
              frame.set("job", front_id);
              frame.set("waves", waves);
              static_cast<void>(channel->write_line(frame.dump()));
            },
            every, [&] { send_ack(); }, &final_waves);
        client.set_recv_timeout(config_.io_timeout_ms);
        return status;
      });
      got = true;
    } catch (const std::exception&) {
      got = false;
    }
    std::unique_lock lock(state_mutex_);
    if (route->generation != generation) continue;  // moved: re-subscribe
    if (route->finished) continue;  // serve the terminal frame above
    if (got) {
      release_route_locked(*route);  // watch ended terminal southbound
      lock.unlock();
      send_ack();
      Json frame = Json::object();
      frame.set("event", "done");
      frame.set("job", front_id);
      frame.set("status", final_status);
      frame.set("waves", final_waves);
      static_cast<void>(channel->write_line(frame.dump()));
      return std::nullopt;
    }
    state_cv_.wait_for(lock, std::chrono::milliseconds(250), [&] {
      return route->finished || route->generation != generation ||
             stopping_.load(std::memory_order_relaxed);
    });
    if (stopping_.load(std::memory_order_relaxed) && !route->finished &&
        route->generation == generation) {
      return make_error("forwarder stopping", "backend_down");
    }
  }
}

Json Forwarder::handle_drain(const Json& request) {
  drain();
  if (request.get_bool("wait", false)) wait_routes_idle();
  Json response = make_ok();
  response.set("draining", true);
  return response;
}

void Forwarder::wait_routes_idle() {
  // Wait until every route is terminal on its backend (a forwarder keeps
  // no pool of its own; "drained" means the backends are).
  for (;;) {
    std::vector<std::pair<std::size_t, std::uint64_t>> live;
    {
      std::lock_guard lock(state_mutex_);
      for (const auto& [id, route] : routes_) {
        if (!route->finished) {
          live.emplace_back(route->backend, route->backend_job);
        }
      }
    }
    bool any_running = false;
    for (const auto& [backend, backend_job] : live) {
      try {
        const std::string status =
            southbound(backend, [&](Client& client) {
              return client.status(backend_job);
            }).get_string("status", "");
        if (status == "queued" || status == "running" ||
            status == "preempted") {
          any_running = true;
          break;
        }
      } catch (const std::exception&) {
        // Unreachable backend: the poller will fail the route over or
        // finish it; keep waiting.
        any_running = true;
        break;
      }
    }
    if (!any_running || stopping_.load(std::memory_order_relaxed)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

void Forwarder::wait_drained() {
  {
    std::unique_lock lock(state_mutex_);
    state_cv_.wait(lock, [this] {
      return draining_.load(std::memory_order_relaxed) ||
             stopping_.load(std::memory_order_relaxed);
    });
  }
  wait_routes_idle();
}

}  // namespace ehw::svc
