// Tests for the self-healing service core: task-exception propagation
// into failed results, per-job deadlines, lane quarantine (free and
// leased arrays, unsatisfiable queued jobs), checkpoint-based preemption
// and migration — sched-level resubmit and the full server hop — with
// the bit-identity guarantee: a migrated mission lands on the same
// fitness/genotype (and, when the new slice is at least as wide, the
// same simulated time) as an uninterrupted run. Plus the reconnecting
// client: retry with backoff across a daemon restart and idempotent
// resubmit keyed by mission name through journal dedup.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ehw/common/fault.hpp"
#include "ehw/common/persist.hpp"
#include "ehw/sched/array_pool.hpp"
#include "ehw/sched/missions.hpp"
#include "ehw/svc/client.hpp"
#include "ehw/svc/forwarder.hpp"
#include "ehw/svc/server.hpp"

namespace ehw::sched {
namespace {

MissionSpec quick_spec(const std::string& name, Generation generations,
                       std::size_t lanes = 2, std::uint64_t seed = 5) {
  MissionSpec spec;
  spec.kind = MissionKind::kDenoise;
  spec.name = name;
  spec.lanes = lanes;
  spec.generations = generations;
  spec.size = 16;
  spec.seed = seed;
  return spec;
}

PoolConfig small_pool(std::size_t arrays) {
  PoolConfig config;
  config.num_arrays = arrays;
  config.line_width = 16;
  return config;
}

/// Uninterrupted reference for the bit-identity checks.
struct Reference {
  Fitness fitness = 0;
  std::uint64_t genotype_hash = 0;
  sim::SimTime sim_time = 0;
};

Reference standalone_reference(const MissionSpec& spec) {
  const JobOutcome alone = run_spec_standalone(spec);
  Reference ref;
  ref.fitness = alone.intrinsic.es.best_fitness;
  ref.genotype_hash = alone.intrinsic.es.best.hash();
  ref.sim_time = alone.stats.mission_time;
  return ref;
}

/// Thread-safe holder for the latest checkpoint a sink observed.
struct LatestCheckpoint {
  std::mutex mutex;
  std::shared_ptr<const platform::MissionCheckpoint> state;

  MissionCheckpointing checkpointing(Generation every = 0) {
    MissionCheckpointing ck;
    ck.every = every;
    ck.sink = [this](const platform::MissionCheckpoint& saved) {
      const std::lock_guard lock(mutex);
      state = std::make_shared<platform::MissionCheckpoint>(saved);
    };
    return ck;
  }

  std::shared_ptr<const platform::MissionCheckpoint> get() {
    const std::lock_guard lock(mutex);
    return state;
  }
};

/// Finds an array currently leased by a running job (any job).
std::size_t leased_array(ArrayPool& pool) {
  for (int tries = 0; tries < 10000; ++tries) {
    for (const ArrayPool::ArrayHealth& health : pool.array_health()) {
      if (health.state == ArrayPool::ArrayHealth::State::kLeased) {
        return health.id;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("no array was ever leased");
}

// --- task-exception propagation ---------------------------------------------

TEST(Robustness, JobBodyExceptionBecomesFailedResultNotCrash) {
  ArrayPool pool(small_pool(1));
  const auto runner =
      pool.submit(JobConfig{.name = "poison", .lanes = 1},
                  [](MissionContext&, JobOutcome&) {
                    throw std::runtime_error("boom: poisoned job body");
                  });
  static_cast<void>(runner->result());
  EXPECT_EQ(runner->status(), JobStatus::kFailed);
  EXPECT_NE(runner->result().error.find("boom"), std::string::npos);

  // The pool (and its worker threads) survived; the next job is fine.
  const MissionSpec spec = quick_spec("after-poison", 8, 1);
  const auto next = pool.submit(make_job_config(spec), make_job_body(spec));
  static_cast<void>(next->result());
  EXPECT_EQ(next->status(), JobStatus::kDone);
  EXPECT_EQ(pool.quick_stats().failed, 1u);
  EXPECT_EQ(pool.quick_stats().done, 1u);
}

TEST(Robustness, TaskThrowFaultFailsExactlyOneJobCleanly) {
  fault::ScopedPlan plan("task_throw=count:1");
  ArrayPool pool(small_pool(1));
  const MissionSpec first = quick_spec("seu-victim", 8, 1);
  const auto victim =
      pool.submit(make_job_config(first), make_job_body(first));
  static_cast<void>(victim->result());
  EXPECT_EQ(victim->status(), JobStatus::kFailed);
  EXPECT_FALSE(victim->result().error.empty());

  // count:1 is spent; the follow-up job runs clean on the same pool.
  const MissionSpec second = quick_spec("seu-survivor", 8, 1);
  const auto survivor =
      pool.submit(make_job_config(second), make_job_body(second));
  static_cast<void>(survivor->result());
  EXPECT_EQ(survivor->status(), JobStatus::kDone);
}

// --- deadlines --------------------------------------------------------------

TEST(Robustness, DeadlineExpiryFailsTheJobAndIsCounted) {
  ArrayPool pool(small_pool(1));
  MissionSpec spec = quick_spec("overdue", 100000000, 1);
  ASSERT_EQ(apply_spec_option(spec, "deadline-ms", "50"), "");
  ASSERT_EQ(spec.deadline_ms, 50u);
  const auto runner =
      pool.submit(make_job_config(spec), make_job_body(spec));
  static_cast<void>(runner->result());
  EXPECT_EQ(runner->status(), JobStatus::kFailed);
  EXPECT_TRUE(runner->deadline_exceeded());
  EXPECT_FALSE(runner->result().error.empty());
  EXPECT_EQ(pool.quick_stats().deadline_expired, 1u);

  // A deadline generous enough never fires.
  MissionSpec relaxed = quick_spec("on-time", 8, 1);
  relaxed.deadline_ms = 60000;
  const auto ok =
      pool.submit(make_job_config(relaxed), make_job_body(relaxed));
  static_cast<void>(ok->result());
  EXPECT_EQ(ok->status(), JobStatus::kDone);
  EXPECT_FALSE(ok->deadline_exceeded());
}

TEST(Robustness, MergedCascadeHonoursCancelAndDeadline) {
  // A merged-fitness cascade judges its candidates at the chain end
  // itself and submits no waves, so the cascade loop's per-step boundary
  // poll is its only cancellation point.
  PoolConfig config;
  config.num_arrays = 2;
  ArrayPool pool(config);
  MissionSpec spec;
  spec.kind = MissionKind::kCascade;
  spec.name = "merged";
  spec.lanes = 2;
  spec.generations = 2000;
  spec.merged_fitness = true;

  const auto cancelled =
      pool.submit(make_job_config(spec), make_job_body(spec));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  cancelled->cancel();
  static_cast<void>(cancelled->result());
  EXPECT_EQ(cancelled->status(), JobStatus::kCancelled);
  EXPECT_FALSE(cancelled->deadline_exceeded());

  spec.name = "merged-overdue";
  spec.deadline_ms = 20;
  const auto overdue = pool.submit(make_job_config(spec), make_job_body(spec));
  static_cast<void>(overdue->result());
  EXPECT_EQ(overdue->status(), JobStatus::kFailed);
  EXPECT_TRUE(overdue->deadline_exceeded());
  EXPECT_NE(overdue->result().error.find("deadline exceeded"),
            std::string::npos);
  EXPECT_EQ(pool.quick_stats().deadline_expired, 1u);
  EXPECT_EQ(pool.quick_stats().cancelled, 1u);
}

TEST(Robustness, PoolRefusesTheJobPoolAsItsHostPool) {
  // Job bodies run on ThreadPool::global(); fanning their waves out over
  // the same workers could leave every worker waiting on chunks that no
  // free worker is left to run.
  PoolConfig config = small_pool(1);
  config.host_pool = &ThreadPool::global();
  EXPECT_THROW(ArrayPool{config}, std::logic_error);

  ThreadPool own(2);
  config.host_pool = &own;
  ArrayPool pool(config);
  const MissionSpec spec = quick_spec("own-host-pool", 8, 1);
  const auto runner = pool.submit(make_job_config(spec), make_job_body(spec));
  static_cast<void>(runner->result());
  EXPECT_EQ(runner->status(), JobStatus::kDone);
}

// --- lane quarantine --------------------------------------------------------

TEST(Robustness, QuarantineFreeArrayShrinksCapacityAndHealRestoresIt) {
  ArrayPool pool(small_pool(2));
  EXPECT_EQ(pool.healthy_arrays(), 2u);
  pool.quarantine_array(0);
  EXPECT_EQ(pool.healthy_arrays(), 1u);
  EXPECT_EQ(pool.array_health()[0].state,
            ArrayPool::ArrayHealth::State::kQuarantined);
  EXPECT_EQ(pool.quick_stats().quarantined, 1u);

  // Degraded scheduling: a 1-lane job still runs on the healthy array.
  const MissionSpec spec = quick_spec("degraded", 8, 1);
  const auto runner =
      pool.submit(make_job_config(spec), make_job_body(spec));
  static_cast<void>(runner->result());
  EXPECT_EQ(runner->status(), JobStatus::kDone);

  EXPECT_TRUE(pool.heal_array(0));
  EXPECT_EQ(pool.healthy_arrays(), 2u);
  EXPECT_FALSE(pool.heal_array(0));  // already healthy
}

TEST(Robustness, QuarantineLeasedArrayPreemptsItsJob) {
  ArrayPool pool(small_pool(2));
  const MissionSpec spec = quick_spec("evicted", 100000000, 2);
  const auto runner =
      pool.submit(make_job_config(spec), make_job_body(spec));
  const std::size_t id = leased_array(pool);
  pool.quarantine_array(id);
  // Leased: the quarantine is pending until the lease releases, and the
  // job is asked to preempt at its next generation boundary.
  static_cast<void>(runner->result());
  EXPECT_EQ(runner->status(), JobStatus::kPreempted);
  EXPECT_EQ(pool.healthy_arrays(), 1u);
  EXPECT_EQ(pool.array_health()[id].state,
            ArrayPool::ArrayHealth::State::kQuarantined);
  EXPECT_EQ(pool.quick_stats().preempted, 1u);
}

TEST(Robustness, QuarantineFailsQueuedJobsThatCanNeverFit) {
  ArrayPool pool(small_pool(2));
  const MissionSpec hog = quick_spec("hog", 100000000, 1);
  const auto hog_runner =
      pool.submit(make_job_config(hog), make_job_body(hog));
  const std::size_t hog_array = leased_array(pool);
  const MissionSpec wide = quick_spec("wide", 10, 2);
  const auto wide_runner =
      pool.submit(make_job_config(wide), make_job_body(wide));

  // Quarantining the FREE array leaves healthy capacity 1: the queued
  // 2-lane job can never be placed and must fail now, not wait forever.
  pool.quarantine_array(hog_array == 0 ? 1 : 0);
  static_cast<void>(wide_runner->result());
  EXPECT_EQ(wide_runner->status(), JobStatus::kFailed);
  EXPECT_FALSE(wide_runner->result().error.empty());

  hog_runner->cancel();
  hog_runner->wait();
}

TEST(Robustness, SubmitBeyondHealthyCapacityFailsAtOnce) {
  // Two arrays, one quarantined: a 2-lane lease fits the pool but not its
  // healthy capacity, so the submit fails before it returns instead of
  // queueing a job that would wait forever.
  ArrayPool pool(small_pool(2));
  pool.quarantine_array(0);
  const MissionSpec wide = quick_spec("wide", 10, 2);
  const auto runner = pool.submit(make_job_config(wide), make_job_body(wide));
  EXPECT_EQ(runner->status(), JobStatus::kFailed);
  EXPECT_NE(runner->result().error.find("insufficient healthy arrays"),
            std::string::npos)
      << runner->result().error;
  EXPECT_EQ(pool.quick_stats().failed, 1u);
}

// --- checkpoint-based migration ---------------------------------------------

TEST(Robustness, PreemptedJobResumesOnEqualSliceBitIdentically) {
  // Long enough that the quarantine below always lands mid-flight.
  const MissionSpec spec = quick_spec("migrant", 400, 2);
  const Reference ref = standalone_reference(spec);

  ArrayPool pool(small_pool(3));
  LatestCheckpoint latest;
  const auto first = pool.submit(make_job_config(spec),
                                 make_job_body(spec, latest.checkpointing()));
  const std::size_t victim = leased_array(pool);
  // Let it make real progress first, so the preempt checkpoint captures a
  // genuinely mid-mission state rather than generation zero.
  while (first->waves_completed() < 5) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pool.quarantine_array(victim);
  static_cast<void>(first->result());
  ASSERT_EQ(first->status(), JobStatus::kPreempted);
  const auto resume = latest.get();
  ASSERT_NE(resume, nullptr);
  ASSERT_FALSE(resume->lane_genotypes.empty());

  // Resubmit from the checkpoint; 2 healthy arrays still grant the full
  // 2-lane slice, so the result is bit-identical INCLUDING simulated
  // time.
  MissionCheckpointing ck;
  ck.resume = resume;
  const auto second =
      pool.submit(make_job_config(spec), make_job_body(spec, ck));
  static_cast<void>(second->result());
  ASSERT_EQ(second->status(), JobStatus::kDone);
  const JobOutcome& outcome = second->result();
  EXPECT_EQ(outcome.intrinsic.es.best_fitness, ref.fitness);
  EXPECT_EQ(outcome.intrinsic.es.best.hash(), ref.genotype_hash);
  EXPECT_EQ(outcome.stats.mission_time, ref.sim_time);
}

TEST(Robustness, RestoreOntoWiderSliceIsBitIdenticalIncludingSimTime) {
  const MissionSpec spec = quick_spec("widen", 30, 2);
  const Reference ref = standalone_reference(spec);

  LatestCheckpoint latest;
  MissionCheckpointing ck = latest.checkpointing();
  ck.preempt_after = 10;
  const JobOutcome preempted = run_spec_standalone(spec, nullptr, ck);
  EXPECT_TRUE(preempted.intrinsic.preempted);
  ASSERT_NE(latest.get(), nullptr);

  // 3 physical arrays host the checkpoint's 2 logical lanes: the extra
  // array is never booked, so even simulated time matches.
  MissionSpec wider = spec;
  wider.lanes = 3;
  MissionCheckpointing restore;
  restore.resume = latest.get();
  const JobOutcome resumed = run_spec_standalone(wider, nullptr, restore);
  EXPECT_EQ(resumed.intrinsic.es.best_fitness, ref.fitness);
  EXPECT_EQ(resumed.intrinsic.es.best.hash(), ref.genotype_hash);
  EXPECT_EQ(resumed.stats.mission_time, ref.sim_time);
}

TEST(Robustness, RestoreOntoNarrowerSliceKeepsFitnessAndGenotype) {
  const MissionSpec spec = quick_spec("narrow", 30, 2);
  const Reference ref = standalone_reference(spec);

  LatestCheckpoint latest;
  MissionCheckpointing ck = latest.checkpointing();
  ck.preempt_after = 10;
  static_cast<void>(run_spec_standalone(spec, nullptr, ck));
  ASSERT_NE(latest.get(), nullptr);

  // 1 physical array hosts both logical lanes: evolution (offspring,
  // RNG, fitness) is bit-identical; simulated time is honestly
  // recomputed for the multiplexed fabric rather than pinned to the
  // 2-array reference, so only its existence is asserted here.
  MissionSpec narrower = spec;
  narrower.lanes = 1;
  MissionCheckpointing restore;
  restore.resume = latest.get();
  const JobOutcome resumed = run_spec_standalone(narrower, nullptr, restore);
  EXPECT_EQ(resumed.intrinsic.es.best_fitness, ref.fitness);
  EXPECT_EQ(resumed.intrinsic.es.best.hash(), ref.genotype_hash);
  EXPECT_GT(resumed.stats.mission_time, 0u);
}

}  // namespace
}  // namespace ehw::sched

namespace ehw::svc {
namespace {

sched::MissionSpec service_spec(const std::string& name,
                                Generation generations,
                                std::size_t lanes = 2) {
  sched::MissionSpec spec;
  spec.kind = sched::MissionKind::kDenoise;
  spec.name = name;
  spec.lanes = lanes;
  spec.generations = generations;
  spec.size = 16;
  spec.seed = 5;
  return spec;
}

ServerConfig small_server(std::size_t arrays) {
  ServerConfig config;
  config.pool.num_arrays = arrays;
  config.pool.line_width = 16;
  return config;
}

std::string fresh_dir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + leaf;
  static_cast<void>(remove_file(dir + "/journal.jsonl"));
  static_cast<void>(remove_file(dir + "/warm.json"));
  for (std::uint64_t id = 1; id <= 16; ++id) {
    static_cast<void>(
        remove_file(dir + "/job-" + std::to_string(id) + ".ckpt"));
  }
  return dir;
}

/// Blocks until the named job reports at least `waves` progress.
void wait_for_waves(Client& client, std::uint64_t job, std::uint64_t waves) {
  for (int tries = 0; tries < 20000; ++tries) {
    const Json status = client.status(job);
    if (status.get_number("waves", 0) >= static_cast<double>(waves)) return;
    const std::string state = status.get_string("status", "?");
    ASSERT_TRUE(state == "queued" || state == "running" ||
                state == "preempted")
        << "job reached " << state << " before " << waves << " waves";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "job never reached " << waves << " waves";
}

/// One leased array id, polled from the server's pool.
std::size_t leased_array(Server& server) {
  for (int tries = 0; tries < 10000; ++tries) {
    for (const auto& health : server.pool().array_health()) {
      if (health.state ==
          sched::ArrayPool::ArrayHealth::State::kLeased) {
        return health.id;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("no array was ever leased");
}

TEST(SvcRobustness, QuarantineMidFlightMigratesMissionBitIdentically) {
  const sched::MissionSpec spec = service_spec("migrate-me", 120);
  const sched::JobOutcome alone = sched::run_spec_standalone(spec);

  Server server(small_server(3));
  Client client(server.port());
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  wait_for_waves(client, submitted.job, 10);

  // Pull a leased array out from under the mission: the scheduler
  // preempts it at a generation boundary and the server migrates it onto
  // the healthy remainder (still 2 arrays — a full-width slice).
  server.pool().quarantine_array(leased_array(server));
  const Json result = client.result(submitted.job);
  ASSERT_TRUE(result.get_bool("ok", false));
  EXPECT_EQ(result.get_string("status", "?"), "done");
  EXPECT_EQ(static_cast<Fitness>(result.get_number("best_fitness", 0)),
            alone.intrinsic.es.best_fitness);
  EXPECT_EQ(result.get_string("genotype_hash", "?"),
            hash_hex(alone.intrinsic.es.best.hash()));
  EXPECT_EQ(result.get_string("sim_ns", "?"),
            std::to_string(alone.stats.mission_time));
  EXPECT_EQ(server.service_stats().migrations, 1u);

  // The health op reports the degraded pool and the migration.
  Json health_req = Json::object();
  health_req.set("op", "health");
  const Json health = client.request(health_req);
  ASSERT_TRUE(health.get_bool("ok", false));
  EXPECT_EQ(health.get_number("quarantined", 0), 1.0);
  EXPECT_EQ(health.get_number("healthy", 0), 2.0);
  EXPECT_EQ(health.get_number("migrations", 0), 1.0);
  server.stop();
}

TEST(SvcRobustness, MigrationOntoNarrowerSliceKeepsFitnessAndGenotype) {
  const sched::MissionSpec spec = service_spec("degrade-me", 120);
  const sched::JobOutcome alone = sched::run_spec_standalone(spec);

  Server server(small_server(2));
  Client client(server.port());
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  wait_for_waves(client, submitted.job, 10);

  // Only 1 healthy array remains for the 2-lane mission: it migrates
  // onto a degraded slice. Fitness/genotype stay bit-identical; the
  // simulated time honestly reflects the lost parallelism.
  server.pool().quarantine_array(leased_array(server));
  const Json result = client.result(submitted.job);
  ASSERT_TRUE(result.get_bool("ok", false));
  EXPECT_EQ(result.get_string("status", "?"), "done");
  EXPECT_EQ(static_cast<Fitness>(result.get_number("best_fitness", 0)),
            alone.intrinsic.es.best_fitness);
  EXPECT_EQ(result.get_string("genotype_hash", "?"),
            hash_hex(alone.intrinsic.es.best.hash()));
  EXPECT_EQ(server.service_stats().migrations, 1u);
  server.stop();
}

TEST(SvcRobustness, UnmigratableCascadeFailsCleanlyAndServiceSurvives) {
  Server server(small_server(2));
  Client client(server.port());
  sched::MissionSpec spec = service_spec("stuck-cascade", 200);
  spec.kind = sched::MissionKind::kCascade;
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  wait_for_waves(client, submitted.job, 10);

  // A cascade's stage count IS its structure: with one array quarantined
  // only 1 healthy remains, no slice can host the 2-stage chain, and the
  // mission fails terminally — but cleanly, with the daemon intact.
  server.pool().quarantine_array(leased_array(server));
  const Json result = client.result(submitted.job);
  ASSERT_TRUE(result.get_bool("ok", false));
  EXPECT_EQ(result.get_string("status", "?"), "failed");
  EXPECT_NE(result.get_string("error", "").find("migration failed"),
            std::string::npos);

  const sched::MissionSpec after = service_spec("after-failure", 8, 1);
  const Client::Submitted next = client.submit(after);
  ASSERT_TRUE(next.ok) << next.error;
  EXPECT_EQ(client.result(next.job).get_string("status", "?"), "done");
  server.stop();
}

// --- reconnecting client ----------------------------------------------------

TEST(SvcRobustness, IdempotentResubmitDedupesAcrossDaemonRestart) {
  const std::string dir = fresh_dir("ehw_robust_restart");
  const sched::MissionSpec spec = service_spec("once-only", 10, 1);
  RetryPolicy policy;
  policy.retries = 2;
  policy.backoff_ms = 20;

  std::uint16_t port = 0;
  std::string first_fitness;
  {
    ServerConfig config = small_server(2);
    config.journal_dir = dir;
    Server server(config);
    port = server.port();
    const IdempotentSubmit submitted =
        submit_idempotent(port, "127.0.0.1", spec, policy);
    ASSERT_TRUE(submitted.ok) << submitted.error;
    EXPECT_FALSE(submitted.already_known);
    const Json result =
        with_retry(port, "127.0.0.1", policy, [&](Client& client) {
          return client.result_by_name(spec.name);
        });
    ASSERT_EQ(result.get_string("status", "?"), "done");
    first_fitness = result.dump();

    // Same daemon, same name: the probe resolves it, nothing reruns.
    const IdempotentSubmit again =
        submit_idempotent(port, "127.0.0.1", spec, policy);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_TRUE(again.already_known);
    EXPECT_EQ(again.job, submitted.job);
    server.stop();
  }

  // Restart on the same port with the same journal. The resubmit's probe
  // finds the replayed mission — journal dedup across incarnations.
  ServerConfig config = small_server(2);
  config.journal_dir = dir;
  config.port = port;
  Server server(config);
  const IdempotentSubmit after_restart =
      submit_idempotent(port, "127.0.0.1", spec, policy);
  ASSERT_TRUE(after_restart.ok) << after_restart.error;
  EXPECT_TRUE(after_restart.already_known);
  const Json replayed =
      with_retry(port, "127.0.0.1", policy, [&](Client& client) {
        return client.result_by_name(spec.name);
      });
  EXPECT_EQ(replayed.get_string("status", "?"), "done");
  EXPECT_TRUE(replayed.get_bool("replayed", false));
  // The re-served result carries the journaled run's numbers.
  const Json original = Json::parse(first_fitness);
  EXPECT_EQ(replayed.get_number("best_fitness", -1),
            original.get_number("best_fitness", -2));
  EXPECT_EQ(replayed.get_string("genotype_hash", "a"),
            original.get_string("genotype_hash", "b"));
  server.stop();
}

TEST(SvcRobustness, WithRetryReconnectsWithBackoffWhileDaemonComesUp) {
  const std::string dir = fresh_dir("ehw_robust_backoff");
  const sched::MissionSpec spec = service_spec("latecomer", 8, 1);

  std::uint16_t port = 0;
  {
    ServerConfig config = small_server(2);
    config.journal_dir = dir;
    Server warmup(config);
    port = warmup.port();
    RetryPolicy eager;
    const IdempotentSubmit submitted =
        submit_idempotent(port, "127.0.0.1", spec, eager);
    ASSERT_TRUE(submitted.ok) << submitted.error;
    Client client(port);
    ASSERT_EQ(client.result(submitted.job).get_string("status", "?"),
              "done");
    warmup.stop();
  }  // daemon is now DOWN

  // Fail-fast policy: with the daemon down, no retries means an error.
  RetryPolicy fail_fast;
  const IdempotentSubmit refused =
      submit_idempotent(port, "127.0.0.1", spec, fail_fast);
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, "unreachable");

  // Patient policy: the daemon restarts while with_retry is backing off;
  // the reconnect lands and the journal-replayed mission dedupes.
  std::unique_ptr<Server> revived;
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ServerConfig config = small_server(2);
    config.journal_dir = dir;
    config.port = port;
    revived = std::make_unique<Server>(config);
  });
  RetryPolicy patient;
  patient.retries = 30;
  patient.backoff_ms = 25;
  const IdempotentSubmit reconnected =
      submit_idempotent(port, "127.0.0.1", spec, patient);
  restarter.join();
  ASSERT_TRUE(reconnected.ok) << reconnected.error;
  EXPECT_TRUE(reconnected.already_known);
  revived->stop();
}

TEST(SvcRobustness, SubmitBatchStaysAllOrNothingUnderInjectedFaults) {
  // Journal fsyncs fail and checkpoint writes error: durability degrades,
  // admission atomicity and results must not.
  fault::ScopedPlan plan("fsync;checkpoint_io");
  ServerConfig config = small_server(2);
  config.journal_dir = fresh_dir("ehw_robust_batch");
  config.max_inflight = 2;
  Server server(config);
  Client client(server.port());

  std::vector<sched::MissionSpec> three;
  three.push_back(service_spec("bat-0", 8, 1));
  three.push_back(service_spec("bat-1", 8, 1));
  three.push_back(service_spec("bat-2", 8, 1));
  const Client::BatchSubmitted rejected = client.submit_batch(three);
  ASSERT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, "queue_full");
  EXPECT_EQ(client.list().get("jobs")->as_array().size(), 0u);

  three.pop_back();
  const Client::BatchSubmitted accepted = client.submit_batch(three);
  ASSERT_TRUE(accepted.ok) << accepted.error;
  ASSERT_EQ(accepted.jobs.size(), 2u);
  for (std::size_t i = 0; i < accepted.jobs.size(); ++i) {
    const Json result = client.result(accepted.jobs[i]);
    EXPECT_EQ(result.get_string("status", "?"), "done") << i;
    const sched::JobOutcome alone = sched::run_spec_standalone(three[i]);
    EXPECT_EQ(static_cast<Fitness>(result.get_number("best_fitness", 0)),
              alone.intrinsic.es.best_fitness);
  }
  EXPECT_GT(fault::hits(fault::Site::kJournalFsync), 0u);
  server.stop();
}

// --- cluster failover -------------------------------------------------------

TEST(SvcRobustness, BackendDeathMidMissionFailsOverFromCheckpoint) {
  const sched::MissionSpec spec = service_spec("cluster-failover", 200, 1);
  const sched::JobOutcome alone = sched::run_spec_standalone(spec);

  // Two durable backends; checkpoints every 4 generations give the
  // forwarder something to resume the mission from.
  ServerConfig c0 = small_server(2);
  c0.journal_dir = fresh_dir("ehw_cluster_b0");
  c0.checkpoint_every = 4;
  ServerConfig c1 = small_server(2);
  c1.journal_dir = fresh_dir("ehw_cluster_b1");
  c1.checkpoint_every = 4;
  Server b0(c0);
  Server b1(c1);

  ForwarderConfig fc;
  BackendConfig e0;
  e0.port = b0.port();
  e0.journal_dir = c0.journal_dir;
  BackendConfig e1;
  e1.port = b1.port();
  e1.journal_dir = c1.journal_dir;
  fc.backends = {e0, e1};
  // A poll cadence far beyond the test window: the chaos hook marks a
  // backend dead while its in-process server keeps running, and a
  // successful poll in between would resurrect it mid-test.
  fc.poll_ms = 60'000;
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());

  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  // Past the third checkpoint: the failover must find a sidecar and
  // resume, not restart from scratch.
  wait_for_waves(client, submitted.job, 12);
  const Json status = client.status(submitted.job);
  const auto backend =
      static_cast<std::size_t>(status.get_number("backend", 0));

  forwarder.mark_backend_down(backend);

  // The blocking result ride through the failover: the route moves to
  // the survivor, resumes from the dead backend's checkpoint, and the
  // answer is bit-identical to an uninterrupted standalone run.
  const Json result = client.result(submitted.job);
  EXPECT_EQ(result.get_string("status", "?"), "done");
  EXPECT_EQ(static_cast<Fitness>(result.get_number("best_fitness", 0)),
            alone.intrinsic.es.best_fitness);
  EXPECT_EQ(result.get_string("genotype_hash", "?"),
            hash_hex(alone.intrinsic.es.best.hash()));
  EXPECT_EQ(result.get_string("sim_ns", "?"),
            std::to_string(alone.stats.mission_time));

  const ForwarderStats stats = forwarder.forwarder_stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.failover_resumed, 1u);
  EXPECT_EQ(stats.backends_up, 1u);

  forwarder.stop();
  b0.stop();
  b1.stop();
}

TEST(SvcRobustness, BackendDeathWithoutCheckpointRestartsFromScratch) {
  // No journal dirs configured at the forwarder: failover cannot read a
  // checkpoint, so the mission restarts from scratch on the survivor —
  // slower, but still bit-identical.
  const sched::MissionSpec spec = service_spec("cluster-rescratch", 80, 1);
  const sched::JobOutcome alone = sched::run_spec_standalone(spec);

  Server b0(small_server(2));
  Server b1(small_server(2));
  ForwarderConfig fc;
  BackendConfig e0;
  e0.port = b0.port();
  BackendConfig e1;
  e1.port = b1.port();
  fc.backends = {e0, e1};
  fc.poll_ms = 60'000;
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());

  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  wait_for_waves(client, submitted.job, 4);
  const Json status = client.status(submitted.job);
  forwarder.mark_backend_down(
      static_cast<std::size_t>(status.get_number("backend", 0)));

  const Json result = client.result(submitted.job);
  EXPECT_EQ(result.get_string("status", "?"), "done");
  EXPECT_EQ(static_cast<Fitness>(result.get_number("best_fitness", 0)),
            alone.intrinsic.es.best_fitness);
  EXPECT_EQ(result.get_string("genotype_hash", "?"),
            hash_hex(alone.intrinsic.es.best.hash()));

  const ForwarderStats stats = forwarder.forwarder_stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_EQ(stats.failover_resumed, 0u);

  forwarder.stop();
  b0.stop();
  b1.stop();
}

TEST(SvcRobustness, NoSurvivingBackendFailsTheRouteCleanly) {
  Server b0(small_server(2));
  ForwarderConfig fc;
  BackendConfig e0;
  e0.port = b0.port();
  fc.backends = {e0};
  fc.poll_ms = 60'000;
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());

  const sched::MissionSpec spec = service_spec("cluster-doomed", 200, 1);
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  wait_for_waves(client, submitted.job, 2);
  forwarder.mark_backend_down(0);

  // The only backend is gone: the route finishes "failed" locally with
  // the reason, instead of hanging the blocked result forever.
  const Json result = client.result(submitted.job);
  EXPECT_EQ(result.get_string("status", "?"), "failed");
  EXPECT_NE(result.get_string("error", "").find("failover"),
            std::string::npos);
  EXPECT_EQ(forwarder.forwarder_stats().failovers, 0u);

  forwarder.stop();
  b0.stop();
}

}  // namespace
}  // namespace ehw::svc
