// Tests for the multi-mission scheduler: compiled-array cache behaviour,
// job-queue priority/fairness/admission, and the ArrayPool — above all
// that K missions multiplexed on one pool produce BIT-IDENTICAL results
// to the same missions run standalone or one-at-a-time (simulated state
// is never shared between jobs; only host threads and the compiled-array
// cache are, and cache warmth must never leak into results).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <thread>

#include "ehw/sched/array_pool.hpp"
#include "ehw/sched/missions.hpp"
#include "test_util.hpp"

namespace ehw::sched {
namespace {

pe::CompiledArray make_compiled(std::uint64_t seed) {
  Rng rng(seed);
  return pe::CompiledArray(
      evo::Genotype::random(fpga::ArrayShape{4, 4}, rng).to_array());
}

// --- CompiledArrayCache -----------------------------------------------------

TEST(CompiledCache, HitsMissesAndLruEviction) {
  CompiledArrayCache cache(2);
  std::size_t compiles = 0;
  const auto compile = [&compiles] {
    ++compiles;
    return make_compiled(1);
  };

  EXPECT_NE(cache.get_or_compile(10, compile), nullptr);  // miss
  EXPECT_NE(cache.get_or_compile(10, compile), nullptr);  // hit
  EXPECT_EQ(compiles, 1u);

  bool hit = false;
  static_cast<void>(cache.get_or_compile(20, compile, &hit));  // miss
  EXPECT_FALSE(hit);
  static_cast<void>(cache.get_or_compile(10, compile, &hit));  // hit: 10 MRU
  EXPECT_TRUE(hit);
  static_cast<void>(cache.get_or_compile(30, compile, &hit));  // evicts 20
  EXPECT_FALSE(hit);
  static_cast<void>(cache.get_or_compile(20, compile, &hit));  // miss again
  EXPECT_FALSE(hit);
  static_cast<void>(cache.get_or_compile(10, compile, &hit));  // 10 survived?
  EXPECT_FALSE(hit);  // no: 20's reinsert evicted LRU 10 (cap 2: {30, 20})

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

TEST(CompiledCache, SharedInstanceAndCapacityZeroDisables) {
  CompiledArrayCache cache(4);
  const auto a = cache.get_or_compile(7, [] { return make_compiled(2); });
  const auto b = cache.get_or_compile(7, [] { return make_compiled(2); });
  EXPECT_EQ(a.get(), b.get());  // one shared instance

  CompiledArrayCache off(0);
  const auto c = off.get_or_compile(7, [] { return make_compiled(2); });
  const auto d = off.get_or_compile(7, [] { return make_compiled(2); });
  EXPECT_NE(c.get(), d.get());
  EXPECT_EQ(off.stats().hits, 0u);
  EXPECT_EQ(off.stats().misses, 2u);
}

// --- MissionImagesCache -----------------------------------------------------

MissionSpec frames_spec(std::uint64_t scene_seed) {
  MissionSpec spec;
  spec.kind = MissionKind::kDenoise;
  spec.size = 16;
  spec.scene_seed = scene_seed;
  return spec;
}

TEST(MissionImagesCache, RepeatSpecsShareFramesAndTheLeastRecentIsRebuilt) {
  MissionImagesCache cache(2);
  const MissionSpec a = frames_spec(1);
  const auto first = cache.get_or_make(a);
  ASSERT_NE(first, nullptr);
  const MissionImages fresh = make_mission_images(a);
  EXPECT_EQ(first->train, fresh.train);
  EXPECT_EQ(first->reference, fresh.reference);

  // A repeat spec (another name, same frame-shaping fields) hits and
  // gets the same frames object.
  MissionSpec renamed = a;
  renamed.name = "renamed";
  EXPECT_EQ(cache.get_or_make(renamed).get(), first.get());
  LruStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // A noise change is a different key, compared exactly.
  MissionSpec noisier = a;
  noisier.noise = std::nextafter(a.noise, 1.0);
  EXPECT_NE(cache.get_or_make(noisier).get(), first.get());

  // Past capacity the least recently used spec (a) is rebuilt: equal
  // frames, new object.
  static_cast<void>(cache.get_or_make(frames_spec(2)));  // evicts a
  const auto rebuilt = cache.get_or_make(a);
  EXPECT_NE(rebuilt.get(), first.get());
  EXPECT_EQ(rebuilt->train, fresh.train);
  EXPECT_EQ(rebuilt->reference, fresh.reference);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
}

// --- JobQueue ---------------------------------------------------------------

JobTicket ticket(std::uint64_t id, std::size_t lanes, int priority) {
  // Plain to_string: gcc 12 -O3 has a -Wrestrict false positive on
  // operator+(const char*, std::string&&).
  return JobTicket{id, std::to_string(id), lanes, priority};
}

TEST(JobQueue, PriorityThenFifo) {
  JobQueue q;
  q.push(ticket(0, 1, 0));
  q.push(ticket(1, 1, 5));
  q.push(ticket(2, 1, 5));
  EXPECT_EQ(q.pop_admissible(8)->id, 1u);  // highest priority, earliest
  EXPECT_EQ(q.pop_admissible(8)->id, 2u);
  EXPECT_EQ(q.pop_admissible(8)->id, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(JobQueue, RespectsCapacity) {
  JobQueue q;
  q.push(ticket(0, 3, 1));
  EXPECT_FALSE(q.pop_admissible(2).has_value());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_admissible(3)->id, 0u);
}

TEST(JobQueue, AgingPromotesStarvedJobOverFreshArrivals) {
  // A waiting ticket gains one effective priority per
  // JobQueue::kAgingRounds admissions, so a continuous stream of FRESH
  // high-priority arrivals cannot starve it: once aged, it ties them and
  // FIFO wins the tie.
  static_assert(JobQueue::kAgingRounds == 4,
                "the script below ages ticket 0 through 4 admissions");
  JobQueue q;
  q.push(ticket(0, 1, 0));  // the starved low-priority job
  q.push(ticket(1, 1, 1));
  EXPECT_EQ(q.pop_admissible(8)->id, 1u);
  q.push(ticket(2, 1, 1));
  EXPECT_EQ(q.pop_admissible(8)->id, 2u);
  q.push(ticket(3, 1, 1));
  EXPECT_EQ(q.pop_admissible(8)->id, 3u);
  q.push(ticket(4, 1, 1));
  EXPECT_EQ(q.pop_admissible(8)->id, 4u);
  q.push(ticket(5, 1, 1));
  // Ticket 0 waited through 4 admissions: effective 0 + 4/4 = 1, and the
  // smaller id beats the fresh priority-1 arrival.
  EXPECT_EQ(q.pop_admissible(8)->id, 0u);
  EXPECT_EQ(q.pop_admissible(8)->id, 5u);
}

TEST(JobQueue, StarvationBoundedUnderContinuousHighPriorityStream) {
  // Adversarial arrival pattern: every admission is immediately followed
  // by a FRESH job with a large static priority advantage. Aging must
  // still dispatch the old low-priority job within a bounded number of
  // pops: it gains one effective priority per kAgingRounds admissions,
  // so after gap * kAgingRounds pops it ties the fresh arrivals and FIFO
  // wins. Without aging this loop would never pop ticket 0.
  constexpr int kPriorityGap = 9;
  JobQueue q;
  q.push(ticket(0, 1, 0));  // the victim
  const std::uint64_t bound = kPriorityGap * JobQueue::kAgingRounds + 1;
  std::uint64_t pops = 0;
  bool victim_dispatched = false;
  for (std::uint64_t id = 1; pops < 2 * bound; ++id) {
    q.push(ticket(id, 1, kPriorityGap));
    const auto admitted = q.pop_admissible(8);
    ASSERT_TRUE(admitted.has_value());
    ++pops;
    if (admitted->id == 0) {
      victim_dispatched = true;
      break;
    }
  }
  EXPECT_TRUE(victim_dispatched);
  EXPECT_LE(pops, bound);
}

TEST(JobQueue, HeadOfLineProtectionForWideJobs) {
  // Small jobs may backfill around a wide job that doesn't fit — but only
  // JobQueue::kStarvationAge times; then the queue refuses to admit
  // anything until the wide job fits.
  constexpr std::uint64_t kAge = JobQueue::kStarvationAge;
  JobQueue q;
  q.push(ticket(0, 4, 0));  // wide, head of line
  for (std::uint64_t id = 1; id <= kAge + 4; ++id) q.push(ticket(id, 1, 0));
  for (std::uint64_t round = 0; round < kAge; ++round) {
    const auto t = q.pop_admissible(1);  // wide job never fits one array
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->id, round + 1);
  }
  EXPECT_FALSE(q.pop_admissible(1).has_value());  // drain mode
  EXPECT_EQ(q.pop_admissible(4)->id, 0u);         // wide job finally fits
  EXPECT_EQ(q.pop_admissible(1)->id, kAge + 1);   // backfill resumes
}

// --- ArrayPool --------------------------------------------------------------

std::vector<MissionSpec> heterogeneous_specs() {
  // Four different workloads: parallel denoise (3 lanes), edge detection
  // (2 lanes), single-lane morphology, collaborative cascade (2 stages).
  std::istringstream manifest(R"(
# batch determinism workload
denoise    dn0 lanes=3 generations=30 size=24 noise=0.3 seed=5
edge       ed0 lanes=2 generations=25 size=24 seed=7
morphology mo0 lanes=1 generations=20 size=24 seed=9 two-level=1
cascade    ca0 lanes=2 generations=8 size=24 noise=0.2 seed=11
)");
  return parse_manifest(manifest);
}

void expect_same_outcome(const JobOutcome& a, const JobOutcome& b) {
  EXPECT_EQ(a.intrinsic.es.best, b.intrinsic.es.best);
  EXPECT_EQ(a.intrinsic.es.best_fitness, b.intrinsic.es.best_fitness);
  EXPECT_EQ(a.intrinsic.es.generations_run, b.intrinsic.es.generations_run);
  ASSERT_EQ(a.intrinsic.es.history.size(), b.intrinsic.es.history.size());
  for (std::size_t i = 0; i < a.intrinsic.es.history.size(); ++i) {
    EXPECT_EQ(a.intrinsic.es.history[i].generation,
              b.intrinsic.es.history[i].generation);
    EXPECT_EQ(a.intrinsic.es.history[i].fitness,
              b.intrinsic.es.history[i].fitness);
  }
  EXPECT_EQ(a.intrinsic.duration, b.intrinsic.duration);
  EXPECT_EQ(a.intrinsic.pe_writes, b.intrinsic.pe_writes);
  ASSERT_EQ(a.cascade.stages.size(), b.cascade.stages.size());
  for (std::size_t s = 0; s < a.cascade.stages.size(); ++s) {
    EXPECT_EQ(a.cascade.stages[s].best, b.cascade.stages[s].best);
    EXPECT_EQ(a.cascade.stages[s].stage_fitness,
              b.cascade.stages[s].stage_fitness);
  }
  EXPECT_EQ(a.cascade.chain_fitness, b.cascade.chain_fitness);
  EXPECT_EQ(a.cascade.duration, b.cascade.duration);
  // Simulated mission time is part of the reproducible result; cache
  // hits/misses intentionally are NOT (they depend on what other
  // missions warmed the shared cache with).
  EXPECT_EQ(a.stats.mission_time, b.stats.mission_time);
}

TEST(ArrayPool, MultiplexedMissionsBitIdenticalToSequentialAndStandalone) {
  const std::vector<MissionSpec> specs = heterogeneous_specs();
  ASSERT_EQ(specs.size(), 4u);

  // Concurrently multiplexed: 4 heterogeneous jobs on 8 arrays.
  PoolConfig concurrent;
  concurrent.num_arrays = 8;
  ArrayPool pool(concurrent);
  std::vector<std::shared_ptr<MissionRunner>> runners;
  for (const MissionSpec& spec : specs) {
    runners.push_back(pool.submit(make_job_config(spec),
                                  make_job_body(spec)));
  }
  pool.wait_all();

  // One-at-a-time on a fresh pool (shared cache, zero concurrency).
  PoolConfig serial = concurrent;
  serial.max_concurrent_jobs = 1;
  ArrayPool serial_pool(serial);
  std::vector<std::shared_ptr<MissionRunner>> serial_runners;
  for (const MissionSpec& spec : specs) {
    serial_runners.push_back(
        serial_pool.submit(make_job_config(spec), make_job_body(spec)));
  }
  serial_pool.wait_all();

  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_EQ(runners[i]->status(), JobStatus::kDone) << specs[i].name;
    ASSERT_EQ(serial_runners[i]->status(), JobStatus::kDone);
    // Multiplexed == one-at-a-time on the pool...
    expect_same_outcome(runners[i]->result(), serial_runners[i]->result());
    // ...== the pre-scheduler standalone driver run.
    expect_same_outcome(runners[i]->result(), run_spec_standalone(specs[i]));
  }

  // Progress accounting: evolution jobs run one wave per generation.
  EXPECT_EQ(runners[0]->waves_completed(),
            runners[0]->result().intrinsic.es.generations_run);
}

TEST(ArrayPool, CacheHitRateAboveZeroOnRepeatedGenotypeWorkload) {
  MissionSpec spec;
  spec.kind = MissionKind::kDenoise;
  spec.name = "repeat";
  spec.lanes = 2;
  spec.size = 24;
  spec.generations = 20;
  spec.seed = 33;

  PoolConfig config;
  config.num_arrays = 2;
  config.max_concurrent_jobs = 1;  // deterministic cache interleaving
  ArrayPool pool(config);
  const auto first = pool.submit(make_job_config(spec), make_job_body(spec));
  const auto second = pool.submit(make_job_config(spec), make_job_body(spec));
  pool.wait_all();

  ASSERT_EQ(first->status(), JobStatus::kDone);
  ASSERT_EQ(second->status(), JobStatus::kDone);
  // Identical mission replayed against a warm cache: every candidate the
  // first run compiled is served from the cache in the second.
  const platform::MissionStats& warm = second->result().stats;
  EXPECT_GT(warm.cache_hits, 0u);
  EXPECT_GT(warm.cache_hit_rate(), 0.5);
  EXPECT_GT(pool.cache_stats().hits, 0u);
  // And the warm run's mission results are still bit-identical.
  expect_same_outcome(first->result(), second->result());
}

TEST(ArrayPool, FitnessMemoWarmReplayHitsAndStaysBitIdentical) {
  MissionSpec spec;
  spec.kind = MissionKind::kDenoise;
  spec.name = "memo";
  spec.lanes = 2;
  spec.size = 24;
  spec.generations = 20;
  spec.seed = 33;

  // Memo-enabled pool, identical mission twice (serialized so the warm
  // replay is deterministic).
  PoolConfig with_memo;
  with_memo.num_arrays = 2;
  with_memo.max_concurrent_jobs = 1;
  ArrayPool pool(with_memo);
  const auto cold = pool.submit(make_job_config(spec), make_job_body(spec));
  const auto warm = pool.submit(make_job_config(spec), make_job_body(spec));
  pool.wait_all();
  ASSERT_EQ(cold->status(), JobStatus::kDone);
  ASSERT_EQ(warm->status(), JobStatus::kDone);

  // Same missions with the memo disabled.
  PoolConfig no_memo = with_memo;
  no_memo.fitness_memo_capacity = 0;
  ArrayPool off_pool(no_memo);
  const auto off_cold =
      off_pool.submit(make_job_config(spec), make_job_body(spec));
  const auto off_warm =
      off_pool.submit(make_job_config(spec), make_job_body(spec));
  off_pool.wait_all();

  // Bit-identity: memo-on == memo-off == standalone, cold and warm.
  expect_same_outcome(cold->result(), off_cold->result());
  expect_same_outcome(warm->result(), off_warm->result());
  expect_same_outcome(warm->result(), run_spec_standalone(spec));

  // The warm replay re-encounters every candidate on the same frames.
  const platform::MissionStats& warm_stats = warm->result().stats;
  EXPECT_GT(warm_stats.memo_hits, 0u);
  EXPECT_GT(warm_stats.memo_hit_rate(), 0.5);
  EXPECT_GT(pool.memo_stats().hits, 0u);
  // Disabled memo never counts traffic.
  EXPECT_EQ(off_warm->result().stats.memo_hits, 0u);
  EXPECT_EQ(off_pool.memo_stats().hits, 0u);
}

enum class Damage : std::uint8_t { kNone, kSeu, kLpd };

/// A mission's lease that records every candidate's fitness, so two runs
/// can be compared candidate by candidate and not only by their
/// survivors. Unless `damage` is kNone, it also damages the fabric between
/// waves: before every wave but the first, one of the wave's lanes takes
/// a fault of that kind.
class RecordingExecutor final : public platform::WaveExecutor {
 public:
  RecordingExecutor(MissionContext& context, std::vector<Fitness>& measured,
                    Damage damage)
      : context_(context), measured_(measured), damage_(damage) {}

  [[nodiscard]] platform::EvolvablePlatform& platform() noexcept override {
    return context_.platform();
  }
  [[nodiscard]] const std::vector<std::size_t>& lanes()
      const noexcept override {
    return context_.lanes();
  }
  platform::WaveOutcome run_wave(const std::vector<evo::Candidate>& offspring,
                                 const std::vector<std::size_t>& wave_lanes,
                                 const img::Image& input,
                                 const img::Image& compare,
                                 sim::SimTime barrier) override {
    if (damage_ != Damage::kNone && waves_ > 0) {
      const std::size_t lane = wave_lanes[waves_ % wave_lanes.size()];
      if (damage_ == Damage::kSeu) {
        static_cast<void>(platform().inject_seu(lane));
      } else {
        static_cast<void>(platform().inject_lpd(lane));
      }
    }
    ++waves_;
    platform::WaveOutcome outcome =
        context_.run_wave(offspring, wave_lanes, input, compare, barrier);
    measured_.insert(measured_.end(), outcome.fitness.begin(),
                     outcome.fitness.end());
    return outcome;
  }

 private:
  MissionContext& context_;
  std::vector<Fitness>& measured_;
  const Damage damage_;
  std::size_t waves_ = 0;
};

ArrayPool::JobBody recording_body(const MissionSpec& spec,
                                  std::vector<Fitness>& measured,
                                  Damage damage) {
  return [spec, &measured, damage](MissionContext& context,
                                   JobOutcome& outcome) {
    RecordingExecutor executor(context, measured, damage);
    run_spec(executor, spec, outcome);
  };
}

TEST(ArrayPool, FitnessMemoOnDamagedFabricStaysBitIdentical) {
  // The memo and compiled-cache keys carry the configuration fingerprint,
  // so a fault that the fingerprint missed would be answered with the
  // healthy fabric's fitness. A healthy run warms both first: its
  // candidates are the damaged run's up to the first fault, and the
  // memo holds every one of them.
  MissionSpec spec;
  spec.kind = MissionKind::kDenoise;
  spec.name = "damaged";
  spec.lanes = 2;
  spec.size = 16;
  spec.generations = 20;
  spec.seed = 33;

  for (const Damage damage : {Damage::kSeu, Damage::kLpd}) {
    SCOPED_TRACE(damage == Damage::kSeu ? "SEU" : "LPD");
    PoolConfig with_memo;
    with_memo.num_arrays = 2;
    with_memo.max_concurrent_jobs = 1;
    ArrayPool pool(with_memo);
    std::vector<Fitness> unharmed;
    std::vector<Fitness> memo_on;
    const auto healthy = pool.submit(
        make_job_config(spec), recording_body(spec, unharmed, Damage::kNone));
    const auto damaged = pool.submit(make_job_config(spec),
                                     recording_body(spec, memo_on, damage));
    pool.wait_all();

    // Reference: memo and cache off, so every candidate is compiled from
    // its fabric and measured.
    PoolConfig no_memo = with_memo;
    no_memo.fitness_memo_capacity = 0;
    no_memo.cache_capacity = 0;
    ArrayPool off_pool(no_memo);
    std::vector<Fitness> memo_off;
    const auto reference = off_pool.submit(
        make_job_config(spec), recording_body(spec, memo_off, damage));
    off_pool.wait_all();

    ASSERT_EQ(healthy->status(), JobStatus::kDone);
    ASSERT_EQ(damaged->status(), JobStatus::kDone) << damaged->result().error;
    ASSERT_EQ(reference->status(), JobStatus::kDone)
        << reference->result().error;
    EXPECT_EQ(memo_on, memo_off);
    expect_same_outcome(damaged->result(), reference->result());
    // The memo did answer (the first wave, before any fault), and the
    // faults changed what the fabric computes.
    EXPECT_GT(damaged->result().stats.memo_hits, 0u);
    EXPECT_NE(memo_off, unharmed);
  }
}

TEST(ArrayPool, ConcurrentIdenticalMissionsShareMemoBitIdentically) {
  // Several copies of one mission racing on a shared memo: every result
  // must equal the memo-off standalone run no matter which mission
  // populated which entry first.
  MissionSpec spec;
  spec.kind = MissionKind::kEdge;
  spec.name = "race";
  spec.lanes = 1;
  spec.size = 16;
  spec.generations = 15;
  spec.seed = 77;
  const JobOutcome reference = run_spec_standalone(spec);

  PoolConfig config;
  config.num_arrays = 4;
  ArrayPool pool(config);
  std::vector<std::shared_ptr<MissionRunner>> runners;
  for (int j = 0; j < 4; ++j) {
    // snprintf: gcc 12 -Wrestrict false positive on const char* + string&&.
    char name[8];
    std::snprintf(name, sizeof name, "race%d", j);
    spec.name = name;
    runners.push_back(pool.submit(make_job_config(spec),
                                  make_job_body(spec)));
  }
  pool.wait_all();
  for (const auto& runner : runners) {
    ASSERT_EQ(runner->status(), JobStatus::kDone);
    expect_same_outcome(runner->result(), reference);
  }
  // Identical candidate streams on identical frames: the memo collapses
  // the duplicate evaluations.
  EXPECT_GT(pool.memo_stats().hits, 0u);
}

TEST(ArrayPool, CancelStopsMissionAtWaveBoundary) {
  PoolConfig config;
  config.num_arrays = 1;
  ArrayPool pool(config);
  std::atomic<bool> started{false};
  const auto runner = pool.submit(
      JobConfig{"cancellee", 1},
      [&started](MissionContext& context, JobOutcome&) {
        started.store(true);
        for (;;) {
          context.check_cancelled();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
  while (!started.load()) std::this_thread::yield();
  runner->cancel();
  runner->wait();
  EXPECT_EQ(runner->status(), JobStatus::kCancelled);
}

TEST(ArrayPool, FailedJobReportsError) {
  ArrayPool pool(PoolConfig{});
  const auto runner =
      pool.submit(JobConfig{"thrower", 1},
                  [](MissionContext&, JobOutcome&) {
                    throw std::runtime_error("boom");
                  });
  runner->wait();
  EXPECT_EQ(runner->status(), JobStatus::kFailed);
  EXPECT_EQ(runner->result().error, "boom");
}

TEST(ArrayPool, SimulatedScheduleOverlapsMissionsOnFreeArrays) {
  // Four identical 2-lane jobs on 8 arrays all engage at pool time 0, so
  // the pool's simulated makespan is one job duration and multiplexed
  // throughput is 4x the one-at-a-time pool — the scheduler's win.
  MissionSpec spec;
  spec.kind = MissionKind::kDenoise;
  spec.lanes = 2;
  spec.size = 16;
  spec.generations = 10;

  PoolConfig config;
  config.num_arrays = 8;
  ArrayPool pool(config);
  for (int j = 0; j < 4; ++j) {
    spec.name = std::to_string(j);
    pool.submit(make_job_config(spec), make_job_body(spec));
  }
  const ArrayPool::ScheduleReport report = pool.simulated_schedule();
  ASSERT_EQ(report.jobs.size(), 4u);
  for (const ArrayPool::ScheduleEntry& entry : report.jobs) {
    EXPECT_EQ(entry.start, 0);  // all four admitted at pool time zero
    EXPECT_EQ(entry.end, report.makespan);
  }
  EXPECT_EQ(report.serialized, 4 * report.makespan);
  EXPECT_DOUBLE_EQ(report.speedup(), 4.0);
  EXPECT_GT(report.missions_per_sim_second(), 0.0);

  // The same workload on a one-job pool serializes completely.
  PoolConfig narrow = config;
  narrow.max_concurrent_jobs = 1;
  ArrayPool narrow_pool(narrow);
  for (int j = 0; j < 4; ++j) {
    spec.name = std::to_string(j);
    narrow_pool.submit(make_job_config(spec), make_job_body(spec));
  }
  const ArrayPool::ScheduleReport serial = narrow_pool.simulated_schedule();
  EXPECT_EQ(serial.makespan, serial.serialized);
  EXPECT_DOUBLE_EQ(serial.speedup(), 1.0);
}

TEST(ArrayPool, RejectsOversizedLaneDemand) {
  PoolConfig config;
  config.num_arrays = 2;
  ArrayPool pool(config);
  EXPECT_THROW(pool.submit(JobConfig{"too-wide", 3},
                           [](MissionContext&, JobOutcome&) {}),
               std::exception);
}

TEST(ArrayPool, QuickStatsMatchPoolStatsOnceQuiet) {
  // The lock-free mirrors are the pool's one counter read: once the pool
  // is quiet they hold the exact books.
  PoolConfig config;
  config.num_arrays = 2;
  ArrayPool pool(config);
  MissionSpec spec;
  spec.kind = MissionKind::kDenoise;
  spec.size = 16;
  spec.generations = 10;
  for (std::uint64_t j = 0; j < 3; ++j) {
    // snprintf: gcc 12 -Wrestrict false positive on const char* + string&&.
    char name[8];
    std::snprintf(name, sizeof name, "q%d", static_cast<int>(j));
    spec.name = name;
    spec.scene_seed = 3 + j;
    static_cast<void>(pool.submit(make_job_config(spec), make_job_body(spec)));
  }
  pool.wait_all();
  const ArrayPool::PoolStats quick = pool.quick_stats();
  EXPECT_EQ(quick.num_arrays, 2u);
  EXPECT_EQ(quick.free_arrays, 2u);
  EXPECT_EQ(quick.quarantined, 0u);
  EXPECT_EQ(quick.running, 0u);
  EXPECT_EQ(quick.queued, 0u);
  EXPECT_EQ(quick.submitted, 3u);
  EXPECT_EQ(quick.done, 3u);
  EXPECT_EQ(quick.failed, 0u);
  EXPECT_EQ(quick.cancelled, 0u);
  EXPECT_EQ(quick.preempted, 0u);
  EXPECT_EQ(quick.deadline_expired, 0u);
}

TEST(ArrayPool, WarmStateIsTheMemoOnly) {
  PoolConfig config;
  config.num_arrays = 2;
  Json exported;
  {
    ArrayPool pool(config);
    MissionSpec spec;
    spec.kind = MissionKind::kDenoise;
    spec.name = "warm";
    spec.size = 16;
    spec.generations = 10;
    static_cast<void>(pool.submit(make_job_config(spec), make_job_body(spec)));
    pool.wait_all();
    exported = pool.export_warm_state();
  }
  EXPECT_EQ(exported.get_string("format", "?"), "mpa-warm-v2");
  ASSERT_NE(exported.get("memo"), nullptr);
  EXPECT_EQ(exported.get("cache"), nullptr);

  ArrayPool fresh(config);
  const std::size_t entries = exported.get("memo")->as_array().size();
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(fresh.import_warm_state(exported).memo_loaded, entries);
  // Any other format (a multi-pool file included) loads nothing.
  Json pools = Json::array();
  pools.push_back(exported);
  Json other = Json::object();
  other.set("format", "mpa-warm-group-v1");
  other.set("pools", std::move(pools));
  EXPECT_EQ(ArrayPool(config).import_warm_state(other).memo_loaded, 0u);
  // So does the previous single-pool tag, whose keys no longer hit.
  Json v1 = exported;
  v1.set("format", "mpa-warm-v1");
  EXPECT_EQ(ArrayPool(config).import_warm_state(v1).memo_loaded, 0u);
}

TEST(ArrayPool, WarmImportReportsWhatTheMemoKept) {
  PoolConfig config;
  config.num_arrays = 2;
  Json exported;
  {
    ArrayPool pool(config);
    MissionSpec spec;
    spec.kind = MissionKind::kDenoise;
    spec.name = "warm";
    spec.size = 16;
    spec.generations = 10;
    static_cast<void>(pool.submit(make_job_config(spec), make_job_body(spec)));
    pool.wait_all();
    exported = pool.export_warm_state();
  }
  const std::size_t entries = exported.get("memo")->as_array().size();
  ASSERT_GT(entries, 16u);

  // A memo smaller than the file keeps its newest entries and reports
  // those, not the file's count.
  PoolConfig small = config;
  small.fitness_memo_capacity = 16;
  ArrayPool kept(small);
  EXPECT_EQ(kept.import_warm_state(exported).memo_loaded, 16u);
  EXPECT_EQ(kept.export_warm_state().get("memo")->as_array().size(), 16u);

  PoolConfig off = config;
  off.fitness_memo_capacity = 0;
  EXPECT_EQ(ArrayPool(off).import_warm_state(exported).memo_loaded, 0u);
}

TEST(Manifest, ParsesKindsAndRejectsMalformedLines) {
  std::istringstream good(R"(
denoise a lanes=2 generations=5
edge b size=16        # trailing comment
)");
  const std::vector<MissionSpec> specs = parse_manifest(good);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].kind, MissionKind::kDenoise);
  EXPECT_EQ(specs[0].lanes, 2u);
  EXPECT_EQ(specs[1].name, "b");
  EXPECT_EQ(specs[1].size, 16u);

  std::istringstream bad_kind("transmogrify x lanes=1");
  EXPECT_THROW(parse_manifest(bad_kind), std::runtime_error);
  std::istringstream bad_kv("denoise x lanes");
  EXPECT_THROW(parse_manifest(bad_kv), std::runtime_error);
  std::istringstream bad_value("denoise x lanes=purple");
  EXPECT_THROW(parse_manifest(bad_value), std::runtime_error);
  std::istringstream no_name("denoise");
  EXPECT_THROW(parse_manifest(no_name), std::runtime_error);
  // Negative values must be rejected, not wrapped to 2^64-1 by stoul.
  std::istringstream negative_size("denoise x size=-1");
  EXPECT_THROW(parse_manifest(negative_size), std::runtime_error);
  std::istringstream negative_gens("denoise x generations=-5");
  EXPECT_THROW(parse_manifest(negative_gens), std::runtime_error);
  std::istringstream noise_range("denoise x noise=1.5");
  EXPECT_THROW(parse_manifest(noise_range), std::runtime_error);
}

std::string manifest_error_message(const std::string& text) {
  std::istringstream in(text);
  try {
    static_cast<void>(parse_manifest(in));
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

TEST(Manifest, ErrorsNameTheOffendingLineNumber) {
  // Malformed input is never silently skipped, and the diagnostic names
  // the exact line (comments and blank lines still count).
  const std::string unknown_key = R"(# header comment
denoise ok lanes=1

edge bad lanes=1 frobnicate=7
)";
  EXPECT_NE(manifest_error_message(unknown_key).find("line 4"),
            std::string::npos)
      << manifest_error_message(unknown_key);
  EXPECT_NE(manifest_error_message(unknown_key).find("frobnicate"),
            std::string::npos);

  const std::string bad_kind = "\n\ntransmogrify x\n";
  EXPECT_NE(manifest_error_message(bad_kind).find("line 3"),
            std::string::npos);

  const std::string bad_value = "denoise a size=purple";
  EXPECT_NE(manifest_error_message(bad_value).find("line 1"),
            std::string::npos);
}

TEST(Manifest, RejectsDuplicateMissionNamesNamingBothLines) {
  const std::string duplicate = R"(denoise job0 lanes=1
edge    job1 lanes=1
cascade job0 lanes=2
)";
  const std::string message = manifest_error_message(duplicate);
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("duplicate mission name 'job0'"), std::string::npos);
  EXPECT_NE(message.find("line 1"), std::string::npos);
}

}  // namespace
}  // namespace ehw::sched
