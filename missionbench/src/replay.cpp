// Stack replay: the service pass's missions rerun through
// sched::ArrayPool::submit with job bodies owned by the benchmark. Each
// body drives sched::run_spec over TimedExecutor, a WaveExecutor that
// makes the same public calls sched::MissionContext::run_wave makes and
// times each one. Outcomes must equal the service's bit for bit.

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "ehw/common/rng.hpp"
#include "ehw/evo/batch.hpp"
#include "ehw/evo/fitness_memo.hpp"
#include "ehw/platform/wave.hpp"
#include "ehw/sched/compiled_cache.hpp"
#include "ehw/svc/protocol.hpp"

namespace mbench {

namespace {

using ehw::Json;
namespace sched = ehw::sched;
namespace platform = ehw::platform;

std::uint64_t elapsed_ns(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Total time and call count of one timed public call.
struct Timer {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
  void add(std::uint64_t duration) {
    ns.fetch_add(duration, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] Json to_json() const {
    Json out = Json::object();
    out.set("ns", static_cast<double>(ns.load()));
    out.set("calls", static_cast<double>(calls.load()));
    return out;
  }
};

struct LayerTimers {
  Timer fingerprint;   // EvolvablePlatform::configuration_fingerprint
  Timer compile;       // EvolvablePlatform::compile_array (cache misses)
  Timer compile_hook;  // the whole compile hook, per candidate
  Timer wave;          // platform::evaluate_offspring_wave, per wave
  Timer frame_set_id;  // evo::frame_set_id, per wave
  std::atomic<std::uint64_t> candidates{0};
  std::atomic<std::uint64_t> memo_misses{0};
};

/// A candidate kept for re-timing on the kernel: the compiled array plus
/// the frames it was measured against.
struct KernelSample {
  std::shared_ptr<const ehw::pe::CompiledArray> array;
  ehw::img::Image input;
  ehw::img::Image compare;
};

class KernelSampler {
 public:
  /// Keeps every `stride`-th candidate, up to `cap`. Memo hits are kept
  /// too: the kernel's cost per call does not depend on the memo, and a
  /// memo-hot workload still reports it (its share, pe.eval_share, counts
  /// memo misses only).
  KernelSampler(std::size_t stride, std::size_t cap)
      : stride_(stride), cap_(cap) {}

  /// True for every `stride`-th candidate while the sample has room.
  [[nodiscard]] bool due() {
    if (seen_.fetch_add(1, std::memory_order_relaxed) % stride_ != 0) {
      return false;
    }
    std::lock_guard lock(mutex_);
    return samples_.size() < cap_;
  }

  void add(const std::shared_ptr<const ehw::pe::CompiledArray>& array,
           const ehw::img::Image& input, const ehw::img::Image& compare) {
    std::lock_guard lock(mutex_);
    if (samples_.size() < cap_) samples_.push_back({array, input, compare});
  }

  /// Median-of-3 fitness_against time per sample, in nanoseconds.
  [[nodiscard]] std::vector<double> retime() const {
    std::vector<double> out;
    for (const KernelSample& sample : samples_) {
      std::array<double, 3> runs{};
      for (double& run : runs) {
        const Clock::time_point start = Clock::now();
        static_cast<void>(
            sample.array->fitness_against(sample.input, sample.compare));
        run = static_cast<double>(elapsed_ns(start));
      }
      std::sort(runs.begin(), runs.end());
      out.push_back(runs[1]);
    }
    return out;
  }

 private:
  const std::size_t stride_;
  const std::size_t cap_;
  std::atomic<std::uint64_t> seen_{0};
  std::mutex mutex_;
  std::vector<KernelSample> samples_;
};

/// The warm state one daemon's pool holds, owned by the benchmark so the
/// replay can call it directly: compiled-array cache, fitness memo and
/// mission-frame cache, sized like the pool's.
struct Replica {
  explicit Replica(const sched::PoolConfig& config)
      : cache(config.cache_capacity),
        memo(config.fitness_memo_capacity),
        images(config.mission_images_capacity),
        pool(config) {}
  sched::CompiledArrayCache cache;
  ehw::evo::FitnessMemo memo;
  sched::MissionImagesCache images;
  /// Last, so it is destroyed first: its job bodies use the members above.
  sched::ArrayPool pool;
};

class TimedExecutor final : public platform::WaveExecutor {
 public:
  TimedExecutor(sched::MissionContext& context, Replica& replica,
                LayerTimers& timers, KernelSampler& sampler)
      : context_(context),
        replica_(replica),
        timers_(timers),
        sampler_(sampler) {
    memo_.memo = &replica.memo;
  }

  [[nodiscard]] platform::EvolvablePlatform& platform() noexcept override {
    return context_.platform();
  }
  [[nodiscard]] const std::vector<std::size_t>& lanes()
      const noexcept override {
    return context_.lanes();
  }

  platform::WaveOutcome run_wave(const std::vector<ehw::evo::Candidate>& offspring,
                                 const std::vector<std::size_t>& wave_lanes,
                                 const ehw::img::Image& input,
                                 const ehw::img::Image& compare,
                                 ehw::sim::SimTime barrier) override {
    Clock::time_point start = Clock::now();
    memo_.frame_set_id = ehw::evo::frame_set_id(input, compare);
    timers_.frame_set_id.add(elapsed_ns(start));
    const std::uint64_t misses_before = memo_.stats.misses;
    start = Clock::now();
    platform::WaveOutcome outcome = platform::evaluate_offspring_wave(
        platform(), offspring, wave_lanes, input, compare, barrier,
        [&](std::size_t lane) { return compile(lane, input, compare); },
        &memo_);
    const std::uint64_t wave_ns = elapsed_ns(start);
    timers_.wave.add(wave_ns);
    wave_ns_ += wave_ns;
    timers_.candidates.fetch_add(offspring.size(), std::memory_order_relaxed);
    timers_.memo_misses.fetch_add(memo_.stats.misses - misses_before,
                                  std::memory_order_relaxed);
    return outcome;
  }

  /// Host time this mission spent inside evaluate_offspring_wave.
  [[nodiscard]] std::uint64_t wave_ns() const noexcept { return wave_ns_; }

 private:
  // The key and cache calls of MissionContext::compile_cached.
  platform::CompiledLane compile(std::size_t lane,
                                 const ehw::img::Image& input,
                                 const ehw::img::Image& compare) {
    const Clock::time_point hook_start = Clock::now();
    const std::optional<ehw::evo::Genotype>& configured =
        platform().configured_genotype(lane);
    const std::uint64_t fingerprint =
        platform().configuration_fingerprint(lane);
    timers_.fingerprint.add(elapsed_ns(hook_start));
    const std::uint64_t key = ehw::hash_mix(
        fingerprint, configured.has_value() ? configured->hash() : 0);
    auto compiled = replica_.cache.get_or_compile(key, [&] {
      const Clock::time_point start = Clock::now();
      ehw::pe::CompiledArray array = platform().compile_array(lane);
      timers_.compile.add(elapsed_ns(start));
      return array;
    });
    timers_.compile_hook.add(elapsed_ns(hook_start));
    if (sampler_.due()) sampler_.add(compiled, input, compare);
    return {std::move(compiled), key};
  }

  sched::MissionContext& context_;
  Replica& replica_;
  LayerTimers& timers_;
  KernelSampler& sampler_;
  platform::WaveMemo memo_;
  std::uint64_t wave_ns_ = 0;
};

/// Per-mission record of the measured replay.
struct MissionTimes {
  double queue_wait_s = 0.0;   // ArrayPool::submit -> body start
  double images_s = 0.0;       // MissionImagesCache::get_or_make
  double run_spec_s = 0.0;     // sched::run_spec
  double waves_s = 0.0;        // evaluate_offspring_wave inside run_spec
  double sim_ns = 0.0;         // mission simulated time
  double reconfig_busy_ns = 0.0;  // engine busy time (simulated)
};

}  // namespace

Json result_identity(const Json& result) {
  Json identity = Json::object();
  for (const char* key :
       {"status", "best_fitness", "genotype_hash", "sim_ns", "stages"}) {
    const Json* value = result.get(key);
    identity.set(key, value != nullptr ? *value : Json());
  }
  return identity;
}

Json stack_replay(const Workload& workload,
                  const std::vector<sched::MissionSpec>& warmup,
                  const std::vector<ReplayItem>& items) {
  std::vector<std::unique_ptr<Replica>> replicas;
  for (std::size_t i = 0; i < std::max<std::size_t>(1, workload.backends); ++i) {
    replicas.push_back(std::make_unique<Replica>(workload.pool));
  }
  LayerTimers warm_timers;
  LayerTimers timers;
  KernelSampler no_samples(1, 0);
  KernelSampler sampler(7, 96);
  std::vector<MissionTimes> times(items.size());

  // One mission through the pool; `record` is null for warm-up missions.
  // Mirrors the daemon's checkpoint cadence (the sink's journal write is
  // service work and is not replayed).
  sched::MissionCheckpointing checkpointing;
  if (workload.journaled) checkpointing.every = workload.checkpoint_every;
  checkpointing.sink = [](const platform::MissionCheckpoint&) {};
  const auto submit = [&](const sched::MissionSpec& spec, Replica& replica,
                          MissionTimes* record) {
    const Clock::time_point submitted = Clock::now();
    Replica* rep = &replica;
    LayerTimers* layer = record != nullptr ? &timers : &warm_timers;
    KernelSampler* samples = record != nullptr ? &sampler : &no_samples;
    return replica.pool.submit(
        sched::make_job_config(spec),
        [spec, submitted, record, rep, layer, samples, checkpointing](
            sched::MissionContext& context, sched::JobOutcome& outcome) {
          const Clock::time_point start = Clock::now();
          TimedExecutor executor(context, *rep, *layer, *samples);
          // Taken here so its cost is timed alone; run_spec's own lookup
          // then hits the entry just made.
          static_cast<void>(rep->images.get_or_make(spec));
          const Clock::time_point run_start = Clock::now();
          sched::run_spec(executor, spec, outcome, checkpointing,
                          &rep->images);
          const Clock::time_point end = Clock::now();
          if (record == nullptr) return;
          record->queue_wait_s = seconds_since(submitted, start);
          record->images_s = seconds_since(start, run_start);
          record->run_spec_s = seconds_since(run_start, end);
          record->waves_s = static_cast<double>(executor.wave_ns()) * 1e-9;
          record->sim_ns = static_cast<double>(outcome.stats.mission_time);
          record->reconfig_busy_ns = static_cast<double>(
              context.platform().engine_stats().busy_time);
        });
  };
  const auto replica_of = [&](std::size_t index) -> Replica& {
    return *replicas[index % replicas.size()];
  };

  // Warm-up: the same missions the service ran before its window, so
  // cache and memo warmth match.
  for (std::size_t i = 0; i < warmup.size(); ++i) {
    submit(warmup[i], replica_of(i), nullptr)->wait();
  }
  const auto image_stats = [&] {
    sched::MissionImagesCacheStats total;
    for (const auto& replica : replicas) {
      const sched::MissionImagesCacheStats stats = replica->images.stats();
      total.hits += stats.hits;
      total.misses += stats.misses;
    }
    return total;
  };
  const sched::MissionImagesCacheStats images_before = image_stats();

  std::vector<std::shared_ptr<sched::MissionRunner>> runners(items.size());
  const Clock::time_point origin = Clock::now();
  if (workload.open_loop) {
    // Same due schedule as the service pass, from one submitting thread.
    for (std::size_t i = 0; i < items.size(); ++i) {
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(items[i].due_s)));
      runners[i] = submit(items[i].spec, replica_of(items[i].index), &times[i]);
    }
  } else {
    // Same closed loop as the service pass: each worker waits on its
    // mission before taking the next.
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> workers;
    for (std::size_t c = 0; c < workload.mission_connections; ++c) {
      workers.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < items.size();
             i = next.fetch_add(1)) {
          runners[i] =
              submit(items[i].spec, replica_of(items[i].index), &times[i]);
          runners[i]->wait();
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  Json missions = Json::array();
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const sched::MissionRunner& runner = *runners[i];
    runner.wait();
    const Json replayed = ehw::svc::outcome_to_json(
        items[i].spec.kind, runner.status(), runner.result());
    if (result_identity(replayed) != result_identity(items[i].service_result)) {
      ++mismatches;
    }
    Json row = Json::object();
    row.set("index", static_cast<double>(items[i].index));
    row.set("queue_wait_s", times[i].queue_wait_s);
    row.set("images_s", times[i].images_s);
    row.set("run_spec_s", times[i].run_spec_s);
    row.set("waves_s", times[i].waves_s);
    row.set("sim_ns", times[i].sim_ns);
    row.set("reconfig_busy_ns", times[i].reconfig_busy_ns);
    missions.push_back(std::move(row));
  }

  // Every mission looked its frames up twice: the timed call, then
  // run_spec's guaranteed hit, which is not counted.
  const sched::MissionImagesCacheStats images_after = image_stats();
  const std::uint64_t hits = images_after.hits - images_before.hits;
  Json images = Json::object();
  images.set("hits", static_cast<double>(hits - std::min<std::uint64_t>(
                                                    hits, items.size())));
  images.set("misses",
             static_cast<double>(images_after.misses - images_before.misses));

  Json kernel = Json::array();
  for (double ns : sampler.retime()) kernel.push_back(ns);

  Json out = Json::object();
  out.set("missions", std::move(missions));
  out.set("mismatches", static_cast<double>(mismatches));
  out.set("fingerprint", timers.fingerprint.to_json());
  out.set("compile", timers.compile.to_json());
  out.set("compile_hook", timers.compile_hook.to_json());
  out.set("wave", timers.wave.to_json());
  out.set("frame_set_id", timers.frame_set_id.to_json());
  out.set("candidates", static_cast<double>(timers.candidates.load()));
  out.set("memo_misses", static_cast<double>(timers.memo_misses.load()));
  out.set("images", std::move(images));
  out.set("kernel_ns", std::move(kernel));
  return out;
}

}  // namespace mbench
