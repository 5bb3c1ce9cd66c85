#include "ehw/svc/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>

#include "ehw/common/fault.hpp"
#include "ehw/common/persist.hpp"
#include "ehw/common/rng.hpp"
#include "ehw/common/version.hpp"
#include "ehw/obs/trace.hpp"
#include "ehw/sched/checkpoint_store.hpp"

namespace ehw::svc {
namespace {

/// The stats op's "pool" counters object.
Json pool_stats_json(const sched::ArrayPool::PoolStats& stats) {
  Json pool = Json::object();
  pool.set("arrays", static_cast<std::uint64_t>(stats.num_arrays));
  pool.set("free_arrays", static_cast<std::uint64_t>(stats.free_arrays));
  pool.set("running", static_cast<std::uint64_t>(stats.running));
  pool.set("queued", static_cast<std::uint64_t>(stats.queued));
  pool.set("submitted", stats.submitted);
  pool.set("done", stats.done);
  pool.set("failed", stats.failed);
  pool.set("cancelled", stats.cancelled);
  pool.set("quarantined", static_cast<std::uint64_t>(stats.quarantined));
  pool.set("healthy", static_cast<std::uint64_t>(stats.healthy()));
  pool.set("preempted", stats.preempted);
  pool.set("deadline_expired", stats.deadline_expired);
  return pool;
}

/// Exact non-negative integer out of a record field, or nullopt.
std::optional<std::uint64_t> record_id(const Json& record, const char* key) {
  const Json* field = record.get(key);
  if (field == nullptr || !field->is_number()) return std::nullopt;
  const double value = field->as_number();
  if (!json_number_is_exact_int(value) || value < 0) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

/// The frame that ends a watch stream.
std::string done_frame(std::uint64_t job, const std::string& status,
                       std::uint64_t waves) {
  Json frame = Json::object();
  frame.set("event", "done");
  frame.set("job", job);
  frame.set("status", status);
  frame.set("waves", waves);
  return frame.dump();
}

/// A watch subscription's runner observer: progress frames only (the
/// done frame is finish_job's, sent once the answer is committed).
sched::MissionRunner::EventCallback progress_frames(
    std::uint64_t job, std::uint64_t every,
    std::shared_ptr<LineChannel> channel) {
  return [job, every, channel = std::move(channel)](
             const sched::MissionEvent& event) {
    if (event.kind != sched::MissionEvent::Kind::kProgress ||
        event.waves % every != 0) {
      return;
    }
    Json frame = Json::object();
    frame.set("event", "progress");
    frame.set("job", job);
    frame.set("waves", event.waves);
    // Dead channels fail silently; the subscription just goes quiet.
    static_cast<void>(channel->write_line(frame.dump()));
  };
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), pool_(config_.pool) {
  max_inflight_ = config_.max_inflight != 0 ? config_.max_inflight
                                            : 2 * config_.pool.num_arrays;
  // Identity first: the greeting/stats of the fresh incarnation must
  // already carry the bumped epoch when the first client connects.
  mint_identity();
  // Replay before the listener exists: clients connecting to the fresh
  // incarnation already see every surviving job, and resumed missions
  // are back in flight before the first new submit competes for lanes.
  replay_journal();
  frontend_ = std::make_unique<Frontend>(
      config_, Json::Object{{"instance_id", instance_id_}, {"epoch", epoch_}},
      m_connections_, std::bind_front(&Server::handle_request, this));
  // Last: a session may read any member (and frontend_) from here on.
  frontend_->start();
}

Server::~Server() { stop(); }

void Server::mint_identity() {
  // Fresh identity by default (non-durable daemons ARE new instances on
  // every start — there is no state a peer could mistake for current).
  std::uint64_t entropy = 0;
  try {
    std::random_device rd;
    entropy = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  } catch (...) {
    // A throwing random_device leaves the time/pid mix below.
  }
  entropy = hash_mix(entropy, obs::Tracer::now_ns(),
                     static_cast<std::uint64_t>(::getpid()));
  instance_id_ = hash_hex(entropy);
  epoch_ = 1;
  if (config_.journal_dir.empty()) return;
  static_cast<void>(ensure_directory(config_.journal_dir));
  const std::string path = config_.journal_dir + "/instance.json";
  std::string text;
  if (read_file_text(path, text).empty()) {
    try {
      const Json doc = Json::parse(text);
      const std::string stored = doc.get_string("instance_id", "");
      const double stored_epoch = doc.get_number("epoch", 0);
      if (!stored.empty() && stored_epoch >= 1 &&
          json_number_is_exact_int(stored_epoch)) {
        instance_id_ = stored;
        epoch_ = static_cast<std::uint64_t>(stored_epoch) + 1;
      }
    } catch (const JsonError&) {
      // Corrupt identity sidecar: keep the fresh identity — peers see a
      // brand-new backend, which is the safe direction (cold rejoin).
    }
  }
  Json doc = Json::object();
  doc.set("instance_id", instance_id_);
  doc.set("epoch", epoch_);
  static_cast<void>(atomic_write_file(path, doc.dump() + "\n"));
}

std::uint64_t Server::retry_after_ms_locked(std::size_t incoming) const {
  // Expected wait until `incoming` slots free: the backlog that must
  // terminate first, drained at the pool's parallelism, each taking
  // about the observed median mission wall time. A cold daemon (no
  // completed mission yet) hints a flat 100 ms probe.
  const obs::Histogram::Snapshot wall = m_mission_wall_.snapshot();
  const double per_mission_ms =
      wall.count > 0 ? wall.quantile(0.50) / 1e6 : 100.0;
  const double parallel = static_cast<double>(
      std::max<std::size_t>(1, config_.pool.num_arrays));
  const double backlog = static_cast<double>(inflight_) +
                         static_cast<double>(incoming) -
                         static_cast<double>(max_inflight_) + 1.0;
  const double hint = per_mission_ms * std::max(1.0, backlog / parallel);
  return static_cast<std::uint64_t>(std::clamp(hint, 25.0, 60000.0));
}

void Server::replay_journal() {
  if (config_.journal_dir.empty()) return;
  const MissionJournal::Replay replay =
      MissionJournal::replay(config_.journal_dir);
  journal_ = std::make_unique<MissionJournal>(config_.journal_dir);
  replayed_records_ = replay.records.size();
  journal_corrupt_ = replay.corrupt;
  journal_truncated_tail_ = replay.truncated_tail;

  // Warm state first, so resumed missions hit the warmed memo.
  if (config_.persist_warm) {
    std::string text;
    if (read_file_text(journal_->warm_path(), text).empty()) {
      try {
        warm_memo_loaded_ =
            pool_.import_warm_state(Json::parse(text)).memo_loaded;
      } catch (const JsonError&) {
        // A corrupt warm file costs only recomputation, never recovery.
      }
    }
  }

  // Fold the record stream into per-job final states. "submitted" is the
  // write-ahead anchor: a job with no "finished" record is resubmitted
  // whether or not it ever "started" (the crash may have landed between
  // the ack and the launch).
  struct ReplayedJob {
    sched::MissionSpec spec;
    bool have_spec = false;
    bool finished = false;
    std::string status;
    std::uint64_t waves = 0;
    Json result;
  };
  std::map<std::uint64_t, ReplayedJob> by_id;
  for (const Json& record : replay.records) {
    const std::string rec = record.get_string("rec", "");
    const std::optional<std::uint64_t> id = record_id(record, "job");
    if (!id.has_value()) {
      ++journal_corrupt_;
      continue;
    }
    ReplayedJob& job = by_id[*id];
    if (rec == "submitted") {
      const Json* spec_field = record.get("spec");
      if (spec_field == nullptr ||
          !spec_from_json(*spec_field, job.spec).empty()) {
        ++journal_corrupt_;
        by_id.erase(*id);
        continue;
      }
      job.have_spec = true;
    } else if (rec == "started") {
      // Informational; resubmission keys off "finished" alone.
    } else if (rec == "finished") {
      job.finished = true;
      job.status = record.get_string("status", "failed");
      job.waves = record_id(record, "waves").value_or(0);
      if (const Json* result = record.get("result")) job.result = *result;
    } else {
      ++journal_corrupt_;
    }
  }
  if (!by_id.empty()) next_job_id_ = by_id.rbegin()->first + 1;

  for (auto& [id, job] : by_id) {
    if (!job.have_spec) {
      // A finished/started orphan (its submitted record was the torn
      // line). Nothing actionable without a spec.
      ++journal_corrupt_;
      continue;
    }
    auto record = std::make_shared<JobRecord>();
    record->id = id;
    record->spec = job.spec;
    // Unfinished across the crash: lane demand is re-validated against
    // THIS pool (a restart may have shrunk it). The verdict is journaled,
    // so it survives the NEXT restart too.
    const bool too_wide =
        !job.finished && record->spec.lanes > config_.pool.num_arrays;
    if (job.finished || too_wide) {
      if (too_wide) {
        job.status = status_name(sched::JobStatus::kFailed);
        job.result = Json::object();
        job.result.set("status", job.status);
        job.result.set(
            "error", "recovery: lanes=" + std::to_string(record->spec.lanes) +
                         " exceeds the pool's " +
                         std::to_string(config_.pool.num_arrays) + " arrays");
      }
      if (job.status.empty()) job.status = "failed";
      if (!job.result.is_object()) job.result = Json::object();
      if (job.result.get("status") == nullptr) {
        job.result.set("status", job.status);
      }
      record->replayed = true;
      finish_job(record, job.status, job.waves, job.result,
                 /*commit=*/too_wide);
      ++replayed_finished_;
      std::lock_guard lock(state_mutex_);
      jobs_.emplace(id, std::move(record));
      continue;
    }
    const std::string ckpt_path = journal_->checkpoint_path(id);
    if (file_exists(ckpt_path)) {
      sched::MissionSpec saved_spec;
      auto checkpoint = std::make_shared<platform::MissionCheckpoint>();
      if (sched::load_mission_checkpoint(ckpt_path, saved_spec, *checkpoint)
              .empty()) {
        record->resume = std::move(checkpoint);
        ++resumed_from_checkpoint_;
      }
      // A bad checkpoint file is dropped: a from-scratch rerun is still
      // bit-identical, just slower.
    }
    {
      std::lock_guard lock(state_mutex_);
      // Recovery may momentarily exceed max_inflight_: work admitted
      // before the crash takes precedence over fresh submissions.
      ++inflight_;
      m_inflight_.set(static_cast<double>(inflight_));
    }
    m_submitted_.add();
    ++resumed_;
    record->submitted_ns = obs::Tracer::now_ns();
    launch_job(record);
  }
}

void Server::journal_submitted(const JobRecord& record) {
  if (journal_ == nullptr) return;
  Json rec = Json::object();
  rec.set("rec", "submitted");
  rec.set("v", static_cast<std::uint64_t>(1));
  rec.set("job", record.id);
  rec.set("spec", spec_to_json(record.spec));
  static_cast<void>(journal_->append(rec));
}

void Server::drain() {
  {
    std::lock_guard lock(state_mutex_);
    draining_.store(true, std::memory_order_relaxed);
  }
  state_cv_.notify_all();
}

void Server::wait_drained() {
  std::unique_lock lock(state_mutex_);
  state_cv_.wait(lock, [this] {
    return draining_.load(std::memory_order_relaxed) && inflight_ == 0;
  });
}

void Server::stop() {
  if (stopped_) return;
  frontend_->close();
  // Let in-flight jobs finish first: sessions blocked in a "result" op
  // only unblock when their job does.
  pool_.wait_all();
  frontend_->join();
  // A session may have submitted between the first wait and its join.
  pool_.wait_all();
  // Durable daemons snapshot the memo on the way out; the next
  // incarnation preloads it (pure optimization, loss is benign).
  if (journal_ != nullptr && config_.persist_warm) {
    static_cast<void>(atomic_write_file(
        journal_->warm_path(), pool_.export_warm_state().dump() + "\n"));
  }
  stopped_ = true;
}

ServiceStats Server::service_stats() const {
  ServiceStats stats;
  stats.sessions_open = frontend_->sessions_open();
  {
    std::lock_guard lock(state_mutex_);
    stats.inflight = inflight_;
  }
  // Counters are registry-backed (relaxed atomics): same numbers the
  // Prometheus endpoint scrapes, same wire shape as before.
  stats.connections = m_connections_.value();
  stats.max_inflight = max_inflight_;
  stats.draining = draining_.load(std::memory_order_relaxed);
  stats.submitted = m_submitted_.value();
  stats.rejected = m_rejected_.value();
  stats.migrations = m_migrations_.value();
  stats.instance_id = instance_id_;
  stats.epoch = epoch_;
  return stats;
}

JournalStats Server::journal_stats() const {
  JournalStats stats;
  if (journal_ == nullptr) return stats;
  // Replay-time fields are constants after the constructor; only the
  // counters below move.
  stats.enabled = true;
  stats.replayed_records = replayed_records_;
  stats.replayed_finished = replayed_finished_;
  stats.resumed = resumed_;
  stats.resumed_from_checkpoint = resumed_from_checkpoint_;
  stats.corrupt = journal_corrupt_;
  stats.truncated_tail = journal_truncated_tail_;
  stats.warm_memo_loaded = warm_memo_loaded_;
  stats.checkpoints_written = m_checkpoints_written_.value();
  stats.appended = journal_->appended();
  return stats;
}

std::optional<Json> Server::handle_request(
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
  return make_error("unknown op '" + op + "'", "bad_request");
}

Json Server::handle_submit(const Json& request) {
  const Json* spec_field = request.get("spec");
  if (spec_field == nullptr) {
    return make_error("submit needs a 'spec' object", "bad_request");
  }
  auto record = std::make_shared<JobRecord>();
  const std::string spec_error = spec_from_json(*spec_field, record->spec);
  if (!spec_error.empty()) return make_error(spec_error, "bad_spec");
  // Optional resume state (protocol v1, additive): a checkpoint emitted
  // by a previous incarnation of this mission — how the forwarder fails
  // a half-run mission over to a surviving backend without losing its
  // generations. Malformed state rejects the submit; silently starting
  // from scratch would hide the data loss.
  if (const Json* resume_field = request.get("resume")) {
    auto resume = std::make_shared<platform::MissionCheckpoint>();
    const std::string resume_error =
        platform::mission_checkpoint_from_json(*resume_field, *resume);
    if (!resume_error.empty()) {
      return make_error("bad resume checkpoint: " + resume_error,
                        "bad_request");
    }
    record->resume = std::move(resume);
  }
  if (std::optional<Json> refusal = admit({record})) return *refusal;
  Json response = make_ok();
  response.set("job", record->id);
  response.set("name", record->spec.name);
  return response;
}

Json Server::handle_submit_batch(const Json& request) {
  std::vector<sched::MissionSpec> specs;
  const std::string parse_error = batch_specs_from_json(request, specs);
  if (!parse_error.empty()) return make_error(parse_error, "bad_spec");
  std::vector<std::shared_ptr<JobRecord>> records;
  records.reserve(specs.size());
  for (sched::MissionSpec& spec : specs) {
    records.push_back(std::make_shared<JobRecord>());
    records.back()->spec = std::move(spec);
  }
  if (std::optional<Json> refusal = admit(records)) return *refusal;
  Json jobs = Json::array();
  for (const std::shared_ptr<JobRecord>& record : records) {
    Json entry = Json::object();
    entry.set("job", record->id);
    entry.set("name", record->spec.name);
    jobs.push_back(std::move(entry));
  }
  Json response = make_ok();
  response.set("jobs", std::move(jobs));
  return response;
}

std::optional<Json> Server::admit(
    const std::vector<std::shared_ptr<JobRecord>>& records) {
  EHW_TRACE_SPAN("submit");
  const std::uint64_t admit_start_ns = obs::Tracer::now_ns();
  for (const std::shared_ptr<JobRecord>& record : records) {
    if (record->spec.lanes > config_.pool.num_arrays) {
      return make_error("lanes=" + std::to_string(record->spec.lanes) +
                            " of '" + record->spec.name +
                            "' exceeds the pool's " +
                            std::to_string(config_.pool.num_arrays) +
                            " arrays",
                        "bad_spec");
    }
  }
  // Atomic admission: the specs reserve all their inflight slots or
  // none, so a swarm client never has to unpick a half-accepted manifest.
  const std::size_t incoming = records.size();
  {
    std::lock_guard lock(state_mutex_);
    if (draining_.load(std::memory_order_relaxed)) {
      m_rejected_.add(incoming);
      return make_error("service is draining; not accepting new missions",
                        "draining");
    }
    if (inflight_ + incoming > max_inflight_) {
      m_rejected_.add(incoming);
      Json response = make_error(
          "rejected: " + std::to_string(incoming) +
              " mission(s) do not fit (" + std::to_string(inflight_) +
              " in flight, cap " + std::to_string(max_inflight_) + ")",
          "queue_full");
      response.set("rejected", "queue_full");
      response.set("retry_after_ms", retry_after_ms_locked(incoming));
      return response;
    }
    inflight_ += incoming;
    m_inflight_.set(static_cast<double>(inflight_));
    for (const std::shared_ptr<JobRecord>& record : records) {
      record->id = next_job_id_++;
      record->submitted_ns = admit_start_ns;
    }
  }
  m_submitted_.add(incoming);
  for (const std::shared_ptr<JobRecord>& record : records) {
    // Write-ahead: the "submitted" record lands before the launch (and
    // before the ack), so a crash anywhere after this line still
    // resubmits the mission on restart.
    journal_submitted(*record);
    launch_job(record);
  }
  // Admission-to-ack latency: lane check + write-ahead journal + pool
  // submission. The ack write itself is the session loop's.
  m_submit_latency_.record(obs::Tracer::now_ns() - admit_start_ns);
  return std::nullopt;
}

void Server::launch_job(const std::shared_ptr<JobRecord>& record) {
  if (journal_ != nullptr) {
    Json rec = Json::object();
    rec.set("rec", "started");
    rec.set("job", record->id);
    static_cast<void>(journal_->append(rec));
  }
  // Every job checkpoints through a sink that keeps its latest boundary
  // state in memory — that state is what a lane-quarantine migration
  // restores, journal or not. Journaled daemons additionally persist to
  // the per-job sidecar (atomic replace, latest wins) on the configured
  // cadence and resume from any state recovered at replay.
  sched::MissionCheckpointing checkpointing;
  checkpointing.resume = record->resume;
  std::string sidecar;
  if (journal_ != nullptr && config_.checkpoint_every != 0) {
    checkpointing.every = config_.checkpoint_every;
    sidecar = journal_->checkpoint_path(record->id);
  }
  {
    const sched::MissionSpec spec = record->spec;
    obs::Counter* written = &m_checkpoints_written_;
    checkpointing.sink = [this, record, spec, sidecar,
                          written](const platform::MissionCheckpoint& state) {
      auto holder = std::make_shared<platform::MissionCheckpoint>(state);
      {
        std::lock_guard lock(state_mutex_);
        record->latest = std::move(holder);
      }
      if (!sidecar.empty()) {
        EHW_TRACE_SPAN("checkpoint_write");
        if (sched::save_mission_checkpoint(sidecar, spec, state).empty()) {
          written->add();
        }
      }
    };
  }
  sched::JobConfig config = sched::make_job_config(record->spec);
  if (record->grant_lanes != 0) config.lanes = record->grant_lanes;
  // Pool submission happens OUTSIDE state_mutex_: admit_locked's
  // dispatch-failure path synchronously fires a queued job's kFinished
  // observer, which locks state_mutex_ on this thread.
  const std::shared_ptr<sched::MissionRunner> runner = pool_.submit(
      config, sched::make_job_body(record->spec, checkpointing));
  std::vector<Watcher> watchers;
  {
    std::lock_guard lock(state_mutex_);
    record->runner = runner;
    jobs_.emplace(record->id, record);
    prune_finished_locked();
    watchers = record->watchers;
  }
  // The pool's own record of finished jobs (body closure, outcome
  // reference) is redundant once the service holds the runner — reap it
  // so daemon memory stays bounded over long uptimes.
  static_cast<void>(pool_.reap_finished());
  // Also outside state_mutex_: an already-finished job fires the
  // callback immediately on THIS thread.
  runner->subscribe([this, record, runner](const sched::MissionEvent& event) {
    if (event.kind != sched::MissionEvent::Kind::kFinished) return;
    if (event.status == sched::JobStatus::kPreempted) {
      // The slice is being pulled out from under the mission (lane
      // quarantine): hop to a healthy slice instead of finishing. The
      // inflight slot stays held across the hop.
      migrate_job(record);
      return;
    }
    // Wall time covers admission to terminal finish (across migrations:
    // the stamp survives relaunches); sim time is the mission's own
    // platform makespan. MissionRunner::finish stores the outcome before
    // it fires kFinished observers, so both are safe to read here.
    m_mission_wall_.record(obs::Tracer::now_ns() - record->submitted_ns);
    m_mission_sim_.record(runner->sim_duration());
    finish_job(record, status_name(event.status), event.waves,
               outcome_to_json(record->spec.kind, event.status,
                               runner->result()));
  });
  // Watch streams survive migrations: re-attach them to this incarnation.
  for (const Watcher& watcher : watchers) {
    runner->subscribe(
        progress_frames(record->id, watcher.every, watcher.channel));
  }
}

void Server::finish_job(const std::shared_ptr<JobRecord>& record,
                        const std::string& status, std::uint64_t waves,
                        const Json& result, bool commit) {
  if (commit && journal_ != nullptr) {
    // The commit point: after this append replay re-serves the answer
    // instead of re-running the mission, so it lands before any result
    // waiter or watcher hears of the finish.
    Json rec = Json::object();
    rec.set("rec", "finished");
    rec.set("job", record->id);
    rec.set("status", status);
    rec.set("waves", waves);
    rec.set("result", result);
    static_cast<void>(journal_->append(rec));
    static_cast<void>(remove_file(journal_->checkpoint_path(record->id)));
  }
  std::string text = result.dump();
  std::vector<Watcher> watchers;
  {
    std::lock_guard lock(state_mutex_);
    if (record->runner != nullptr) {  // a live job held an inflight slot
      --inflight_;
      m_inflight_.set(static_cast<double>(inflight_));
    }
    record->finished = true;
    record->final_status = status;
    record->final_waves = waves;
    record->final_result = std::move(text);
    record->runner = nullptr;
    record->resume = nullptr;
    record->latest = nullptr;
    watchers.swap(record->watchers);
  }
  state_cv_.notify_all();
  const std::string frame = done_frame(record->id, status, waves);
  for (const Watcher& watcher : watchers) {
    static_cast<void>(watcher.channel->write_line(frame));
  }
}

void Server::migrate_job(const std::shared_ptr<JobRecord>& record) {
  std::shared_ptr<const platform::MissionCheckpoint> resume;
  std::uint64_t waves = 0;
  {
    std::lock_guard lock(state_mutex_);
    resume = record->latest;
    waves = record->runner->waves_completed();
  }
  const std::size_t healthy = pool_.healthy_arrays();
  std::string error;
  if (resume == nullptr) {
    // Preempted before any generation boundary emitted state — nothing
    // to restore (the driver emits a final checkpoint through the sink
    // whenever it honors a preempt, so this is the zero-progress case).
    error = "preempted with no checkpoint to migrate from";
  } else if (healthy == 0) {
    error = "no healthy arrays left";
  } else if (record->spec.kind == sched::MissionKind::kCascade &&
             record->spec.lanes > healthy) {
    // A cascade's width IS its structure (one array per chain stage):
    // it only migrates onto an equally wide healthy slice.
    error = "cascade needs " + std::to_string(record->spec.lanes) +
            " stages but only " + std::to_string(healthy) +
            " arrays are healthy";
  }
  if (!error.empty()) {
    Json body = Json::object();
    body.set("status", status_name(sched::JobStatus::kFailed));
    body.set("error", "migration failed: " + error);
    finish_job(record, status_name(sched::JobStatus::kFailed), waves, body);
    return;
  }
  {
    std::lock_guard lock(state_mutex_);
    record->resume = resume;
    // Evolve missions shrink onto whatever is left (the checkpoint's
    // logical lane count keeps fitness/genotype bit-identical; wider
    // grants than the logical width would idle, so cap at spec.lanes).
    record->grant_lanes = std::min(record->spec.lanes, healthy);
  }
  m_migrations_.add();
  launch_job(record);
}

void Server::prune_finished_locked() {
  prune_finished(jobs_, config_.max_job_records,
                 [](const JobRecord& record) { return record.finished; });
}

std::shared_ptr<Server::JobRecord> Server::find_job(
    const Json& request, std::string& error) const {
  std::lock_guard lock(state_mutex_);
  return find_record(jobs_, request, error);
}

Json Server::handle_status(const Json& request) {
  std::string error;
  const std::shared_ptr<JobRecord> record = find_job(request, error);
  if (record == nullptr) return make_error(error, "unknown_job");
  Json response = make_ok();
  response.set("job", record->id);
  response.set("name", record->spec.name);
  response.set("kind", sched::kind_name(record->spec.kind));
  response.set("lanes", static_cast<std::uint64_t>(record->spec.lanes));
  std::shared_ptr<sched::MissionRunner> runner;
  std::string result;
  bool replayed = false;
  {
    // Snapshot under the lock: migration swaps the runner and the finish
    // path replaces it with the answer, both on job threads.
    std::lock_guard lock(state_mutex_);
    if (record->finished) {
      response.set("status", record->final_status);
      response.set("waves", record->final_waves);
      result = record->final_result;
      replayed = record->replayed;
    } else {
      runner = record->runner;
    }
  }
  if (runner == nullptr) {
    const Json answer = Json::parse(result);
    if (const Json* sim_ns = answer.get("sim_ns")) {
      response.set("sim_ns", *sim_ns);
    }
    if (replayed) response.set("replayed", true);
    return response;
  }
  response.set("status", status_name(runner->status()));
  response.set("waves", runner->waves_completed());
  return response;
}

Json Server::handle_result(const Json& request) {
  std::string error;
  const std::shared_ptr<JobRecord> record = find_job(request, error);
  if (record == nullptr) return make_error(error, "unknown_job");
  std::string result;
  std::uint64_t waves = 0;
  bool replayed = false;
  {
    // Blocks this session thread until the answer is committed: only
    // the finish path sets `finished`, so a migration in between is just
    // a longer wait, and a journaled answer is already on disk. The
    // connection is dedicated to the wait (use another for control ops).
    std::unique_lock lock(state_mutex_);
    state_cv_.wait(lock, [&] { return record->finished; });
    result = record->final_result;
    waves = record->final_waves;
    replayed = record->replayed;
  }
  Json response = Json::parse(result);
  response.set("ok", true);
  response.set("job", record->id);
  response.set("name", record->spec.name);
  response.set("kind", sched::kind_name(record->spec.kind));
  response.set("waves", waves);
  if (replayed) response.set("replayed", true);
  return response;
}

Json Server::handle_cancel(const Json& request) {
  std::string error;
  const std::shared_ptr<JobRecord> record = find_job(request, error);
  if (record == nullptr) return make_error(error, "unknown_job");
  Json response = make_ok();
  response.set("job", record->id);
  std::shared_ptr<sched::MissionRunner> runner;
  {
    std::lock_guard lock(state_mutex_);
    if (record->finished) {  // long finished: a no-op
      response.set("status", record->final_status);
      return response;
    }
    runner = record->runner;
  }
  runner->cancel();
  response.set("status", status_name(runner->status()));
  return response;
}

Json Server::handle_list() {
  Json jobs = Json::array();
  const std::uint64_t now_ns = obs::Tracer::now_ns();
  {
    std::lock_guard lock(state_mutex_);
    for (const auto& [id, record] : jobs_) {
      Json entry = Json::object();
      entry.set("job", id);
      entry.set("name", record->spec.name);
      entry.set("kind", sched::kind_name(record->spec.kind));
      entry.set("lanes", static_cast<std::uint64_t>(record->spec.lanes));
      if (record->finished) {
        entry.set("status", record->final_status);
        entry.set("waves", record->final_waves);
      } else {
        // Additive: time since this incarnation admitted the live job.
        if (now_ns >= record->submitted_ns) {
          entry.set("age_ms", static_cast<std::uint64_t>(
                                  (now_ns - record->submitted_ns) / 1000000));
        }
        entry.set("status", status_name(record->runner->status()));
        entry.set("waves", record->runner->waves_completed());
      }
      jobs.push_back(std::move(entry));
    }
  }
  Json response = make_ok();
  response.set("jobs", std::move(jobs));
  return response;
}

Json Server::handle_stats() {
  // Pool counters from quick_stats()'s lock-free mirrors: a stats poll
  // (the forwarder hits this a few times a second per backend) must
  // never serialize against job bookkeeping under the pool mutex.
  const LruStats cache_stats = pool_.cache_stats();
  const ServiceStats service = service_stats();

  Json cache = Json::object();
  cache.set("hits", cache_stats.hits);
  cache.set("misses", cache_stats.misses);
  cache.set("evictions", cache_stats.evictions);
  cache.set("hit_rate", cache_stats.hit_rate());

  const LruStats memo_stats = pool_.memo_stats();
  Json memo = Json::object();
  memo.set("hits", memo_stats.hits);
  memo.set("misses", memo_stats.misses);
  memo.set("evictions", memo_stats.evictions);
  memo.set("hit_rate", memo_stats.hit_rate());

  Json svc = Json::object();
  svc.set("protocol", kProtocolVersion);
  svc.set("version", kVersion);
  svc.set("instance_id", instance_id_);
  svc.set("epoch", epoch_);
  svc.set("connections", service.connections);
  svc.set("sessions_open", static_cast<std::uint64_t>(service.sessions_open));
  svc.set("inflight", static_cast<std::uint64_t>(service.inflight));
  svc.set("max_inflight", static_cast<std::uint64_t>(service.max_inflight));
  svc.set("draining", service.draining);
  svc.set("submitted", service.submitted);
  svc.set("rejected", service.rejected);
  svc.set("migrations", service.migrations);

  // Additive: histogram summaries for `mpa top` and operator scripts.
  // The full bucket data stays on the Prometheus endpoint.
  const auto hist_summary = [](const obs::Histogram& hist) {
    const obs::Histogram::Snapshot snap = hist.snapshot();
    Json out = Json::object();
    out.set("count", snap.count);
    out.set("mean_ns", snap.mean());
    out.set("p50_ns", snap.quantile(0.50));
    out.set("p90_ns", snap.quantile(0.90));
    out.set("p99_ns", snap.quantile(0.99));
    return out;
  };
  Json telemetry = Json::object();
  telemetry.set("submit_ack_latency", hist_summary(m_submit_latency_));
  telemetry.set("mission_wall_time", hist_summary(m_mission_wall_));
  telemetry.set("mission_sim_time", hist_summary(m_mission_sim_));
  telemetry.set("trace_armed", obs::Tracer::armed());

  Json response = make_ok();
  response.set("pool", pool_stats_json(pool_.quick_stats()));
  response.set("cache", std::move(cache));
  response.set("memo", std::move(memo));
  response.set("service", std::move(svc));
  response.set("telemetry", std::move(telemetry));
  if (journal_ != nullptr) {
    const JournalStats js = journal_stats();
    Json journal = Json::object();
    journal.set("dir", journal_->dir());
    journal.set("appended", js.appended);
    journal.set("replayed_records", js.replayed_records);
    journal.set("replayed_finished", js.replayed_finished);
    journal.set("resumed", js.resumed);
    journal.set("resumed_from_checkpoint", js.resumed_from_checkpoint);
    journal.set("corrupt", js.corrupt);
    journal.set("truncated_tail", js.truncated_tail);
    journal.set("checkpoints_written", js.checkpoints_written);
    journal.set("checkpoint_every", config_.checkpoint_every);
    journal.set("warm_memo_loaded", js.warm_memo_loaded);
    response.set("journal", std::move(journal));
  }
  return response;
}

Json Server::handle_health() {
  Json arrays = Json::array();
  for (const sched::ArrayPool::ArrayHealth& health : pool_.array_health()) {
    Json entry = Json::object();
    entry.set("array", static_cast<std::uint64_t>(health.id));
    const char* state = "free";
    if (health.state == sched::ArrayPool::ArrayHealth::State::kLeased) {
      state = "leased";
    } else if (health.state ==
               sched::ArrayPool::ArrayHealth::State::kQuarantined) {
      state = "quarantined";
    }
    entry.set("state", state);
    if (health.pending_quarantine) entry.set("pending_quarantine", true);
    if (!health.job.empty()) entry.set("job", health.job);
    arrays.push_back(std::move(entry));
  }
  const sched::ArrayPool::PoolStats stats = pool_.quick_stats();
  Json response = make_ok();
  response.set("instance_id", instance_id_);
  response.set("epoch", epoch_);
  response.set("arrays", std::move(arrays));
  response.set("healthy", static_cast<std::uint64_t>(stats.healthy()));
  response.set("quarantined",
               static_cast<std::uint64_t>(stats.quarantined));
  response.set("preempted", stats.preempted);
  response.set("deadline_expired", stats.deadline_expired);
  response.set("migrations", m_migrations_.value());
  Json faults = Json::object();
  faults.set("active", fault::active());
  if (fault::active()) {
    Json sites = Json::object();
    for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
      const auto site = static_cast<fault::Site>(s);
      if (fault::hits(site) == 0) continue;
      Json counts = Json::object();
      counts.set("hits", fault::hits(site));
      counts.set("fired", fault::fired(site));
      sites.set(fault::site_name(site), std::move(counts));
    }
    faults.set("sites", std::move(sites));
  }
  response.set("faults", std::move(faults));
  return response;
}

std::optional<Json> Server::handle_watch(
    const std::shared_ptr<LineChannel>& channel, const Json& request) {
  std::string error;
  const std::shared_ptr<JobRecord> record = find_job(request, error);
  if (record == nullptr) return make_error(error, "unknown_job");
  const double every_field = request.get_number("every", 1);
  const std::uint64_t every =
      json_number_is_exact_int(every_field) && every_field >= 1
          ? static_cast<std::uint64_t>(every_field)
          : 1;
  Json ack = make_ok();
  ack.set("job", record->id);
  ack.set("watching", record->spec.name);
  if (const Json* id = request.get("id")) ack.set("id", *id);
  std::shared_ptr<sched::MissionRunner> runner;
  std::string done;
  {
    // Check + register in ONE critical section: the finish path either
    // committed before this (answer the done frame here) or takes this
    // watcher with it (it sends the done frame), and a migration either
    // swapped the runner before this (subscribe to the new incarnation
    // below) or copies the watchers after it (launch_job re-attaches
    // us) — no event window is lost.
    std::lock_guard lock(state_mutex_);
    if (record->finished) {
      done = done_frame(record->id, record->final_status, record->final_waves);
    } else {
      runner = record->runner;
      record->watchers.push_back(Watcher{channel, every});
    }
  }
  if (runner == nullptr) {
    static_cast<void>(channel->write_line(ack.dump()));
    static_cast<void>(channel->write_line(done));
    return std::nullopt;
  }
  // Subscribe BEFORE writing the ack: once the client has the ack it
  // must be guaranteed to observe every subsequent wave (the client
  // handles frames, the done frame included, that land ahead of the
  // ack). The write lock keeps the frames themselves from interleaving.
  runner->subscribe(progress_frames(record->id, every, channel));
  // A watching session legitimately goes quiet (events flow the other
  // way) — exempt it from the idle-session bound for its lifetime.
  channel->set_recv_timeout(0);
  static_cast<void>(channel->write_line(ack.dump()));
  return std::nullopt;
}

void Server::refresh_gauges() {
  const sched::ArrayPool::PoolStats pool = pool_.quick_stats();
  metrics_.gauge("mpa_queue_depth").set(static_cast<double>(pool.queued));
  metrics_.gauge("mpa_running_missions").set(static_cast<double>(pool.running));
  metrics_.gauge("mpa_free_arrays").set(static_cast<double>(pool.free_arrays));
  metrics_.gauge("mpa_quarantined_arrays")
      .set(static_cast<double>(pool.quarantined));

  const LruStats cache = pool_.cache_stats();
  metrics_.gauge("mpa_compiled_cache_hit_rate").set(cache.hit_rate());
  const LruStats memo = pool_.memo_stats();
  metrics_.gauge("mpa_fitness_memo_hit_rate").set(memo.hit_rate());

  if (fault::active()) {
    for (std::size_t s = 0; s < fault::kSiteCount; ++s) {
      const auto site = static_cast<fault::Site>(s);
      if (fault::hits(site) == 0) continue;
      metrics_
          .gauge(std::string("mpa_fault_fired{site=\"") +
                 fault::site_name(site) + "\"}")
          .set(static_cast<double>(fault::fired(site)));
    }
  }

  const ServiceStats service = service_stats();
  metrics_.gauge("mpa_sessions_open")
      .set(static_cast<double>(service.sessions_open));
}

std::string Server::metrics_text() {
  refresh_gauges();
  return metrics_.to_prometheus();
}

Json Server::handle_drain(const Json& request) {
  drain();
  if (request.get_bool("wait", false)) {
    std::unique_lock lock(state_mutex_);
    state_cv_.wait(lock, [this] { return inflight_ == 0; });
  }
  Json response = make_ok();
  response.set("draining", true);
  {
    std::lock_guard lock(state_mutex_);
    response.set("inflight", static_cast<std::uint64_t>(inflight_));
  }
  return response;
}

}  // namespace ehw::svc
