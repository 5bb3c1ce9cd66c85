#include "ehw/sched/array_pool.hpp"

#include <algorithm>
#include <queue>
#include <tuple>

#include "ehw/common/fault.hpp"
#include "ehw/evo/batch.hpp"
#include "ehw/obs/trace.hpp"
#include "ehw/sched/missions.hpp"

namespace ehw::sched {

// --- MissionRunner ----------------------------------------------------------

JobStatus MissionRunner::status() const {
  std::lock_guard lock(mutex_);
  return status_;
}

void MissionRunner::wait() const {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] {
    return status_ != JobStatus::kQueued && status_ != JobStatus::kRunning;
  });
}

const JobOutcome& MissionRunner::result() const {
  wait();
  // Finished state is immutable; the wait() above synchronizes with
  // finish(), so reading without the lock is race-free.
  return outcome_;
}

sim::SimTime MissionRunner::sim_duration() const {
  wait();
  return sim_duration_;
}

void MissionRunner::finish(JobStatus status, JobOutcome outcome,
                           sim::SimTime duration) {
  std::vector<EventCallback> observers;
  {
    std::lock_guard lock(mutex_);
    status_ = status;
    outcome_ = std::move(outcome);
    sim_duration_ = duration;
    observers = std::move(observers_);
    observers_.clear();  // no further events after kFinished
  }
  cv_.notify_all();
  MissionEvent event;
  event.kind = MissionEvent::Kind::kFinished;
  event.waves = waves_.load(std::memory_order_relaxed);
  event.status = status;
  for (const EventCallback& observer : observers) observer(event);
}

void MissionRunner::subscribe(EventCallback callback) {
  MissionEvent finished;
  {
    std::lock_guard lock(mutex_);
    if (status_ == JobStatus::kQueued || status_ == JobStatus::kRunning) {
      observers_.push_back(std::move(callback));
      return;
    }
    finished.kind = MissionEvent::Kind::kFinished;
    finished.waves = waves_.load(std::memory_order_relaxed);
    finished.status = status_;
  }
  // Already finished: fire immediately on the subscriber's thread, outside
  // the lock (the callback may call into this runner).
  callback(finished);
}

void MissionRunner::notify_wave() {
  const std::uint64_t waves =
      waves_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<EventCallback> observers;
  {
    std::lock_guard lock(mutex_);
    if (observers_.empty()) return;
    observers = observers_;  // copy: callbacks run outside the lock
  }
  MissionEvent event;
  event.kind = MissionEvent::Kind::kProgress;
  event.waves = waves;
  event.status = JobStatus::kRunning;
  for (const EventCallback& observer : observers) observer(event);
}

// --- MissionContext ---------------------------------------------------------

MissionContext::MissionContext(JobConfig job, ArrayPool& pool,
                               CompiledArrayCache& cache,
                               evo::FitnessMemo& memo, MissionRunner& runner,
                               std::uint64_t job_id,
                               std::chrono::steady_clock::time_point deadline)
    : job_(std::move(job)),
      pool_(pool),
      cache_(cache),
      runner_(runner),
      job_id_(job_id),
      deadline_(deadline) {
  wave_memo_.memo = &memo;
  platform::PlatformConfig pc;
  pc.num_arrays = job_.lanes;
  pc.line_width = pool.config().line_width;
  pc.pool = pool.config().host_pool;
  platform_ = std::make_unique<platform::EvolvablePlatform>(pc);
  lanes_.resize(job_.lanes);
  for (std::size_t i = 0; i < job_.lanes; ++i) lanes_[i] = i;
}

void MissionContext::check_cancelled() const {
  if (job_.deadline_ms > 0 && std::chrono::steady_clock::now() >= deadline_) {
    runner_.expire();
  }
  if (runner_.cancel_requested()) throw MissionCancelled();
}

bool MissionContext::preempt_requested() const noexcept {
  return runner_.preempt_requested();
}

MissionImagesCache& MissionContext::images_cache() noexcept {
  return pool_.images_cache();
}

platform::CompiledLane MissionContext::compile_cached(std::size_t lane) {
  // Key = genotype content hash x fabric fingerprint: the fingerprint
  // already covers the genotype as materialized (plus the defect map and
  // ACB registers); mixing the genotype's own hash keeps the key robust
  // even for hypothetical fabrics whose memory image underdetermines the
  // written genes. The same key doubles as the candidate half of the
  // fitness-memo key (the wave mixes the frame-set id in).
  const std::optional<evo::Genotype>& configured =
      platform_->configured_genotype(lane);
  const std::uint64_t key =
      hash_mix(platform_->configuration_fingerprint(lane),
               configured.has_value() ? configured->hash() : 0);
  bool hit = false;
  auto compiled = cache_.get_or_compile(
      key,
      [this, lane] {
        // Span inside the factory: cache hits cost no clock reads, and
        // the profile's compile phase counts real compilations only.
        EHW_TRACE_SPAN("compile");
        return platform_->compile_array(lane);
      },
      &hit);
  if (hit) {
    ++hits_;
  } else {
    ++misses_;
  }
  return {std::move(compiled), key};
}

platform::WaveOutcome MissionContext::run_wave(
    const std::vector<evo::Candidate>& offspring,
    const std::vector<std::size_t>& wave_lanes, const img::Image& input,
    const img::Image& compare, sim::SimTime barrier) {
  EHW_TRACE_SPAN("wave");
  check_cancelled();
  pool_.poll_wave_faults(job_id_);
  // The frame-set id is taken per wave from the actual frames (cascade
  // stages swap inputs mid-mission). It is O(1) after a frame pair's
  // first wave: each image keeps its content hash until its pixels
  // change (img::Image).
  wave_memo_.frame_set_id = evo::frame_set_id(input, compare);
  platform::WaveOutcome outcome = platform::evaluate_offspring_wave(
      *platform_, offspring, wave_lanes, input, compare, barrier,
      [this](std::size_t lane) { return compile_cached(lane); },
      &wave_memo_);
  runner_.notify_wave();
  return outcome;
}

// --- ArrayPool --------------------------------------------------------------

ArrayPool::ArrayPool(PoolConfig config)
    : config_(config),
      cache_(config.cache_capacity),
      memo_(config.fitness_memo_capacity),
      images_cache_(std::make_unique<MissionImagesCache>(
          config.mission_images_capacity)),
      slots_(config.num_arrays),
      free_arrays_(config.num_arrays) {
  EHW_REQUIRE(config_.num_arrays > 0, "pool needs at least one array");
  EHW_REQUIRE(config_.host_pool != &ThreadPool::global(),
              "host_pool must not be ThreadPool::global(), which runs the "
              "job bodies");
  publish_stats_locked();  // no concurrency yet; seed the mirrors
}

ArrayPool::~ArrayPool() { wait_all(); }

std::shared_ptr<MissionRunner> ArrayPool::submit(JobConfig job, JobBody body) {
  EHW_REQUIRE(job.lanes >= 1 && job.lanes <= config_.num_arrays,
              "job lane demand must fit the pool");
  EHW_REQUIRE(body != nullptr, "job body required");
  auto runner = std::shared_ptr<MissionRunner>(new MissionRunner(job.name));
  std::vector<FailedStart> failures;
  {
    std::lock_guard lock(mutex_);
    auto rec = std::make_unique<Job>();
    rec->id = next_job_id_++;
    rec->submit_ns = obs::Tracer::now_ns();
    ++submitted_;
    rec->config = std::move(job);
    rec->body = std::move(body);
    rec->runner = runner;
    if (rec->config.lanes > config_.num_arrays - quarantined_) {
      // The demand can never fit the healthy capacity: fail now instead
      // of queueing a job that would wait forever (and hang wait_all).
      rec->finished = true;
      ++failed_;
      failures.push_back(FailedStart{
          rec->runner, "insufficient healthy arrays (" +
                           std::to_string(config_.num_arrays - quarantined_) +
                           " of " + std::to_string(config_.num_arrays) +
                           " healthy, job needs " +
                           std::to_string(rec->config.lanes) + ")"});
      jobs_.emplace(rec->id, std::move(rec));
    } else {
      queue_.push(JobTicket{rec->id, rec->config.name, rec->config.lanes,
                            rec->config.priority});
      jobs_.emplace(rec->id, std::move(rec));
      admit_locked(failures);
    }
    publish_stats_locked();
  }
  finish_failed(failures);
  return runner;
}

void ArrayPool::admit_locked(std::vector<FailedStart>& failures) {
  while (config_.max_concurrent_jobs == 0 ||
         running_ < config_.max_concurrent_jobs) {
    std::optional<JobTicket> ticket = queue_.pop_admissible(free_arrays_);
    if (!ticket.has_value()) break;
    Job* job = jobs_.at(ticket->id).get();
    // Lease the first free (healthy) slots by id — deterministic, and
    // the health report names who holds what.
    job->leased.clear();
    for (std::size_t id = 0;
         id < slots_.size() && job->leased.size() < job->config.lanes; ++id) {
      if (slots_[id].state == ArrayHealth::State::kFree) {
        slots_[id].state = ArrayHealth::State::kLeased;
        slots_[id].job_id = job->id;
        job->leased.push_back(id);
      }
    }
    EHW_ASSERT(job->leased.size() == job->config.lanes,
               "free-array count out of sync with slot states");
    free_arrays_ -= job->config.lanes;
    ++running_;
    ++pending_tasks_;
    if (job->config.deadline_ms > 0) {
      job->deadline = std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(job->config.deadline_ms);
    }
    {
      std::lock_guard rlock(job->runner->mutex_);
      job->runner->status_ = JobStatus::kRunning;
    }
    try {
      // No thread is created here: the body becomes a task on the
      // process-wide executor. Its future is dropped: run_job reports
      // through the runner and pending_tasks_.
      ThreadPool::global().submit([this, job] { run_job(job); });
    } catch (const std::exception& e) {
      // Dispatch failure (allocation) must not strand the lease
      // (hanging wait_all) or escape into std::terminate: roll back and
      // fail the job. The runner's finish() — and with it any
      // subscribed observers — is deferred to the caller, outside the
      // pool lock.
      for (const std::size_t id : job->leased) {
        slots_[id].state = ArrayHealth::State::kFree;
        slots_[id].pending_quarantine = false;
      }
      job->leased.clear();
      free_arrays_ += job->config.lanes;
      --running_;
      --pending_tasks_;
      job->finished = true;
      ++failed_;
      failures.push_back(FailedStart{
          job->runner,
          std::string("failed to dispatch job body: ") + e.what()});
      cv_.notify_all();
    }
  }
}

void ArrayPool::finish_failed(std::vector<FailedStart>& failures) {
  for (FailedStart& failure : failures) {
    JobOutcome outcome;
    outcome.error = std::move(failure.error);
    failure.runner->finish(JobStatus::kFailed, std::move(outcome), 0);
  }
  failures.clear();
}

void ArrayPool::run_job(Job* job) {
  fault::maybe_stall(fault::Site::kTaskDelay);
  JobOutcome outcome;
  JobStatus status = JobStatus::kDone;
  sim::SimTime duration = 0;
  // Queue wait: admission to the moment a worker picked the body up. Fed
  // into the job's profile unconditionally (two clock reads) and into the
  // trace ring when armed; the span's start is the admission instant, so
  // the trace shows the wait, not just its length.
  obs::ProfileCollector profile;
  {
    const std::uint64_t picked_ns = obs::Tracer::now_ns();
    if (picked_ns > job->submit_ns) {
      const std::uint64_t waited_ns = picked_ns - job->submit_ns;
      profile.add("queue_wait", waited_ns);
      if (obs::Tracer::armed()) {
        obs::Tracer::global().record("queue_wait", job->submit_ns, waited_ns);
      }
    }
  }
  try {
    if (fault::should_fire(fault::Site::kTaskThrow)) {
      throw std::runtime_error("injected task fault");
    }
    // Constructed INSIDE the try: platform construction can throw (bad
    // fabric parameters, allocation), and a poison job must become a
    // failed result — never an exception escaping into the worker.
    MissionContext context(job->config, *this, cache_, memo_, *job->runner,
                           job->id, job->deadline);
    // The collector rides the worker thread for the body's whole run, so
    // every EHW_TRACE_SPAN fired below (compile, wave, wave_eval,
    // memo_lookup, ...) lands in this job's phase table even with the
    // tracer disarmed.
    obs::ProfileScope profile_scope(&profile);
    try {
      job->body(context, outcome);
    } catch (const MissionPreempted&) {
      status = JobStatus::kPreempted;
    } catch (const MissionCancelled&) {
      if (job->runner->deadline_exceeded()) {
        status = JobStatus::kFailed;
        outcome.error = "deadline exceeded (" +
                        std::to_string(job->config.deadline_ms) + " ms)";
      } else {
        status = JobStatus::kCancelled;
      }
    } catch (const std::exception& e) {
      status = JobStatus::kFailed;
      outcome.error = e.what();
    } catch (...) {
      status = JobStatus::kFailed;
      outcome.error = "unknown job error";
    }
    // Cache traffic is an execution statistic (depends on what other
    // missions warmed the cache with), layered onto the bit-reproducible
    // mission results.
    outcome.stats.cache_hits = context.cache_hits();
    outcome.stats.cache_misses = context.cache_misses();
    outcome.stats.memo_hits = context.memo_hits();
    outcome.stats.memo_misses = context.memo_misses();
    duration = context.platform().now();
  } catch (const std::exception& e) {
    status = JobStatus::kFailed;
    outcome.error = e.what();
  } catch (...) {
    status = JobStatus::kFailed;
    outcome.error = "unknown job error";
  }
  // The collector is off the thread now (scope closed with the try);
  // snapshotting it here keeps partial profiles for failed/cancelled jobs.
  outcome.profile = profile.totals();
  std::vector<FailedStart> failures;
  {
    std::lock_guard lock(mutex_);
    job->sim_duration = duration;
    switch (status) {
      case JobStatus::kDone: ++done_; break;
      case JobStatus::kFailed: ++failed_; break;
      case JobStatus::kCancelled: ++cancelled_; break;
      case JobStatus::kPreempted: ++preempted_; break;
      case JobStatus::kQueued:
      case JobStatus::kRunning: break;  // unreachable terminal states
    }
    if (job->runner->deadline_exceeded()) ++deadline_expired_;
    // Release the lease; an array flagged for quarantine mid-flight
    // leaves service here instead of returning to the free set.
    for (const std::size_t id : job->leased) {
      if (slots_[id].pending_quarantine) {
        slots_[id].state = ArrayHealth::State::kQuarantined;
        slots_[id].pending_quarantine = false;
        ++quarantined_;
      } else {
        slots_[id].state = ArrayHealth::State::kFree;
        ++free_arrays_;
      }
    }
    job->leased.clear();
    --running_;
    evict_unsatisfiable_locked(failures);
    admit_locked(failures);
    publish_stats_locked();
  }
  // Wake result() waiters only after the pool's books reflect the job —
  // a caller returning from result() may immediately read quick_stats()
  // or array_health() and must see the completed state, not a snapshot
  // from mid-teardown. finish() is called outside mutex_ (it takes the
  // runner's own lock and may run user completion paths).
  job->runner->finish(status, std::move(outcome), duration);
  // finish_failed is static and touches only the failure records'
  // runners (kept alive by their shared_ptrs), never the pool.
  finish_failed(failures);
  {
    std::lock_guard lock(mutex_);
    job->finished = true;
    --pending_tasks_;  // last: nothing after this section touches *this
    cv_.notify_all();  // under the lock: wait_all may destroy the pool next
  }
}

void ArrayPool::wait_all() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] {
    return queue_.empty() && running_ == 0 && pending_tasks_ == 0;
  });
}

std::size_t ArrayPool::reap_finished() {
  std::lock_guard lock(mutex_);
  std::size_t reaped = 0;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    // A `finished` job's run_job task is past every access to the
    // record (finished flips in its final critical section), so the
    // record can be freed under the same mutex.
    if (it->second->finished) {
      it = jobs_.erase(it);
      ++reaped;
    } else {
      ++it;
    }
  }
  return reaped;
}

std::size_t ArrayPool::jobs_in_flight() const {
  std::lock_guard lock(mutex_);
  return queue_.size() + running_;
}

// --- quarantine -------------------------------------------------------------

void ArrayPool::quarantine_locked(std::size_t id,
                                  std::vector<FailedStart>& failures) {
  if (id >= slots_.size()) return;
  ArraySlot& slot = slots_[id];
  switch (slot.state) {
    case ArrayHealth::State::kFree:
      slot.state = ArrayHealth::State::kQuarantined;
      --free_arrays_;
      ++quarantined_;
      break;
    case ArrayHealth::State::kLeased: {
      // Can't pull a live lease out from under its platform slice:
      // flag it, preempt the owner (it checkpoints at its next
      // generation boundary), and quarantine on release.
      if (!slot.pending_quarantine) {
        slot.pending_quarantine = true;
        auto it = jobs_.find(slot.job_id);
        if (it != jobs_.end() && it->second->runner != nullptr) {
          it->second->runner->request_preempt();
        }
      }
      break;
    }
    case ArrayHealth::State::kQuarantined:
      break;
  }
  evict_unsatisfiable_locked(failures);
}

void ArrayPool::evict_unsatisfiable_locked(
    std::vector<FailedStart>& failures) {
  // Pending quarantines count against future capacity too: the lease
  // holding them will release into quarantine.
  std::size_t pending = 0;
  for (const ArraySlot& slot : slots_) {
    if (slot.pending_quarantine) ++pending;
  }
  const std::size_t healthy = config_.num_arrays - quarantined_ - pending;
  for (JobTicket& ticket : queue_.evict_wider_than(healthy)) {
    Job* job = jobs_.at(ticket.id).get();
    job->finished = true;
    ++failed_;
    failures.push_back(FailedStart{
        job->runner, "insufficient healthy arrays (" +
                         std::to_string(healthy) + " of " +
                         std::to_string(config_.num_arrays) +
                         " healthy, job needs " +
                         std::to_string(job->config.lanes) + ")"});
  }
  if (!failures.empty()) cv_.notify_all();
}

void ArrayPool::quarantine_array(std::size_t id) {
  std::vector<FailedStart> failures;
  {
    std::lock_guard lock(mutex_);
    quarantine_locked(id, failures);
    publish_stats_locked();
  }
  finish_failed(failures);
}

bool ArrayPool::heal_array(std::size_t id) {
  std::vector<FailedStart> failures;
  bool healed = false;
  {
    std::lock_guard lock(mutex_);
    if (id < slots_.size()) {
      ArraySlot& slot = slots_[id];
      if (slot.state == ArrayHealth::State::kQuarantined) {
        slot.state = ArrayHealth::State::kFree;
        ++free_arrays_;
        --quarantined_;
        healed = true;
        admit_locked(failures);
      } else if (slot.pending_quarantine) {
        slot.pending_quarantine = false;
        healed = true;
      }
    }
    publish_stats_locked();
  }
  finish_failed(failures);
  return healed;
}

std::size_t ArrayPool::healthy_arrays() const {
  std::lock_guard lock(mutex_);
  return config_.num_arrays - quarantined_;
}

std::vector<ArrayPool::ArrayHealth> ArrayPool::array_health() const {
  std::lock_guard lock(mutex_);
  std::vector<ArrayHealth> report(slots_.size());
  for (std::size_t id = 0; id < slots_.size(); ++id) {
    report[id].id = id;
    report[id].state = slots_[id].state;
    report[id].pending_quarantine = slots_[id].pending_quarantine;
    if (slots_[id].state == ArrayHealth::State::kLeased) {
      auto it = jobs_.find(slots_[id].job_id);
      if (it != jobs_.end()) report[id].job = it->second->config.name;
    }
  }
  return report;
}

void ArrayPool::poll_wave_faults(std::uint64_t job_id) {
  if (!fault::should_fire(fault::Site::kLaneSeu)) return;
  std::vector<FailedStart> failures;
  {
    std::lock_guard lock(mutex_);
    auto it = jobs_.find(job_id);
    if (it == jobs_.end() || it->second->leased.empty()) return;
    // Deterministic victim: the job's first leased array.
    quarantine_locked(it->second->leased.front(), failures);
    publish_stats_locked();
  }
  finish_failed(failures);
}

void ArrayPool::publish_stats_locked() const noexcept {
  mirror_.free_arrays.store(free_arrays_, std::memory_order_relaxed);
  mirror_.quarantined.store(quarantined_, std::memory_order_relaxed);
  mirror_.running.store(running_, std::memory_order_relaxed);
  mirror_.queued.store(queue_.size(), std::memory_order_relaxed);
  mirror_.submitted.store(submitted_, std::memory_order_relaxed);
  mirror_.done.store(done_, std::memory_order_relaxed);
  mirror_.failed.store(failed_, std::memory_order_relaxed);
  mirror_.cancelled.store(cancelled_, std::memory_order_relaxed);
  mirror_.preempted.store(preempted_, std::memory_order_relaxed);
  mirror_.deadline_expired.store(deadline_expired_, std::memory_order_relaxed);
}

ArrayPool::PoolStats ArrayPool::quick_stats() const noexcept {
  PoolStats stats;
  stats.num_arrays = config_.num_arrays;
  stats.free_arrays = mirror_.free_arrays.load(std::memory_order_relaxed);
  stats.quarantined = mirror_.quarantined.load(std::memory_order_relaxed);
  stats.running = mirror_.running.load(std::memory_order_relaxed);
  stats.queued = mirror_.queued.load(std::memory_order_relaxed);
  stats.submitted = mirror_.submitted.load(std::memory_order_relaxed);
  stats.done = mirror_.done.load(std::memory_order_relaxed);
  stats.failed = mirror_.failed.load(std::memory_order_relaxed);
  stats.cancelled = mirror_.cancelled.load(std::memory_order_relaxed);
  stats.preempted = mirror_.preempted.load(std::memory_order_relaxed);
  stats.deadline_expired =
      mirror_.deadline_expired.load(std::memory_order_relaxed);
  return stats;
}

ArrayPool::ScheduleReport ArrayPool::simulated_schedule() {
  wait_all();

  // Replay the admission policy in simulated time over the recorded job
  // durations: a deterministic event-driven list schedule (events ordered
  // by end time, ties by submission id) on num_arrays arrays.
  ScheduleReport report;
  JobQueue queue;  // fresh aging state, the same policy
  std::vector<const Job*> jobs;  // ascending id == submission order
  {
    std::lock_guard lock(mutex_);
    for (const auto& [id, job] : jobs_) jobs.push_back(job.get());
  }
  report.jobs.resize(jobs.size());
  // Ids are sparse once jobs have been reaped; map them to report slots.
  std::map<std::uint64_t, std::size_t> slot_of;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job* job = jobs[i];
    slot_of[job->id] = i;
    queue.push(JobTicket{job->id, job->config.name, job->config.lanes,
                         job->config.priority});
    report.serialized += job->sim_duration;
  }

  using Event = std::tuple<sim::SimTime, std::uint64_t, std::size_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> running;
  std::size_t free = config_.num_arrays;
  sim::SimTime now = 0;
  std::size_t active = 0;
  while (!queue.empty() || !running.empty()) {
    while (config_.max_concurrent_jobs == 0 ||
           active < config_.max_concurrent_jobs) {
      std::optional<JobTicket> ticket = queue.pop_admissible(free);
      if (!ticket.has_value()) break;
      const std::size_t slot = slot_of.at(ticket->id);
      const Job* job = jobs[slot];
      ScheduleEntry& entry = report.jobs[slot];
      entry.name = job->config.name;
      entry.lanes = job->config.lanes;
      entry.start = now;
      entry.end = now + job->sim_duration;
      free -= job->config.lanes;
      ++active;
      running.emplace(entry.end, ticket->id, job->config.lanes);
      report.makespan = std::max(report.makespan, entry.end);
    }
    if (running.empty()) {
      // Nothing running and nothing admissible: only possible when the
      // queue is empty too (every job fits an idle pool by construction).
      EHW_ASSERT(queue.empty(), "scheduler replay stalled");
      break;
    }
    const auto [end, id, lanes] = running.top();
    running.pop();
    static_cast<void>(id);
    now = std::max(now, end);
    free += lanes;
    --active;
  }
  return report;
}

// --- warm-state persistence -------------------------------------------------

namespace {
constexpr const char* kWarmFormatTag = "mpa-warm-v2";
}  // namespace

Json ArrayPool::export_warm_state() const {
  Json memo_entries = Json::array();
  for (const auto& [key, fitness] : memo_.snapshot()) {
    memo_entries.push_back(
        Json::Object{{"k", json_u64(key)}, {"f", json_u64(fitness)}});
  }
  return Json(Json::Object{
      {"format", Json(kWarmFormatTag)},
      {"memo", std::move(memo_entries)},
  });
}

ArrayPool::WarmLoadStats ArrayPool::import_warm_state(const Json& state) {
  WarmLoadStats loaded;
  if (!state.is_object() || state.get_string("format", "") != kWarmFormatTag) {
    return loaded;
  }
  const Json* memo = state.get("memo");
  if (memo == nullptr || !memo->is_array()) return loaded;
  std::vector<std::pair<std::uint64_t, Fitness>> entries;
  entries.reserve(memo->as_array().size());
  for (const Json& entry : memo->as_array()) {
    std::uint64_t key = 0;
    Fitness fitness = 0;
    if (json_read_u64(entry.get("k"), key) &&
        json_read_u64(entry.get("f"), fitness)) {
      entries.emplace_back(key, fitness);
    }
  }
  memo_.preload(entries);
  loaded.memo_loaded = memo_.size();
  return loaded;
}

}  // namespace ehw::sched
