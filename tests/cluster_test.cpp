// Tests for the federation layer: a svc::Forwarder fronting in-process
// backend daemons through the ordinary client protocol. Covers
// placement-routed submits (results bit-identical to standalone runs no
// matter which backend hosts them), batch fan-out, name-keyed ops,
// watch streaming through the front, cluster stats/health views, drain
// fan-out, the shared session layer (handshake, frame armor, the trace
// op) on the front, the pooled southbound connections and the bounded
// route table.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ehw/common/fault.hpp"
#include "ehw/common/persist.hpp"
#include "ehw/obs/trace.hpp"
#include "ehw/sched/missions.hpp"
#include "ehw/svc/client.hpp"
#include "ehw/svc/forwarder.hpp"
#include "ehw/svc/server.hpp"
#include "ehw/svc/socket.hpp"

namespace ehw::svc {
namespace {

sched::MissionSpec quick_spec(const std::string& name,
                              std::uint64_t scene_seed,
                              Generation generations = 30) {
  sched::MissionSpec spec;
  spec.kind = sched::MissionKind::kDenoise;
  spec.name = name;
  spec.generations = generations;
  spec.size = 16;
  spec.scene_seed = scene_seed;
  return spec;
}

ServerConfig backend_config(std::size_t arrays = 2) {
  ServerConfig config;
  config.pool.num_arrays = arrays;
  config.pool.line_width = 16;
  return config;
}

/// Two in-process backends + a forwarder over them, ready to serve.
struct Cluster {
  explicit Cluster(std::size_t backends = 2) {
    for (std::size_t i = 0; i < backends; ++i) {
      servers.push_back(std::make_unique<Server>(backend_config(2)));
    }
    ForwarderConfig config;
    for (const auto& server : servers) {
      BackendConfig backend;
      backend.port = server->port();
      config.backends.push_back(backend);
    }
    config.poll_ms = 50;
    forwarder = std::make_unique<Forwarder>(std::move(config));
  }
  ~Cluster() {
    forwarder->stop();
    for (const auto& server : servers) server->stop();
  }
  [[nodiscard]] Client client() const { return Client(forwarder->port()); }

  std::vector<std::unique_ptr<Server>> servers;
  std::unique_ptr<Forwarder> forwarder;
};

/// Polls `pred` until it holds or ~`timeout_ms` elapsed.
bool wait_until(const std::function<bool()>& pred, int timeout_ms = 15000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Blocks until the routed job reports at least `waves` progress.
void wait_for_waves(Client& client, std::uint64_t job, std::uint64_t waves) {
  ASSERT_TRUE(wait_until([&] {
    return client.status(job).get_number("waves", 0) >=
           static_cast<double>(waves);
  })) << "job never reached " << waves << " waves";
}

/// The {"op":"backend","action":"list"} membership table.
Json backend_list(Client& client) {
  Json request = Json::object();
  request.set("op", "backend");
  request.set("action", "list");
  return client.request(request);
}

/// One {"op":"trace","mode":...} round trip.
Json trace_op(Client& client, const char* mode) {
  Json request = Json::object();
  request.set("op", "trace");
  request.set("mode", mode);
  return client.request(request);
}

/// An object's keys in wire order, comma-terminated.
std::string key_order(const Json& object) {
  std::string keys;
  for (const auto& [key, value] : object.as_object()) keys += key + ",";
  return keys;
}

void expect_matches_standalone(const Json& result,
                               const sched::MissionSpec& spec) {
  const sched::JobOutcome alone = sched::run_spec_standalone(spec);
  EXPECT_EQ(result.get_string("status", "?"), "done") << spec.name;
  EXPECT_EQ(static_cast<Fitness>(result.get_number("best_fitness", 0)),
            alone.intrinsic.es.best_fitness)
      << spec.name;
  EXPECT_EQ(result.get_string("genotype_hash", "?"),
            hash_hex(alone.intrinsic.es.best.hash()))
      << spec.name;
  EXPECT_EQ(result.get_string("sim_ns", "?"),
            std::to_string(alone.stats.mission_time))
      << spec.name;
}

// --- routing + bit identity -------------------------------------------------

TEST(Cluster, RoutedResultsAreBitIdenticalToStandalone) {
  Cluster cluster;
  Client client = cluster.client();
  const std::vector<sched::MissionSpec> specs{
      quick_spec("c0", 3), quick_spec("c1", 4), quick_spec("c2", 5),
      quick_spec("c3", 6)};
  std::vector<std::uint64_t> jobs;
  for (const sched::MissionSpec& spec : specs) {
    const Client::Submitted submitted = client.submit(spec);
    ASSERT_TRUE(submitted.ok) << submitted.error;
    jobs.push_back(submitted.job);
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_matches_standalone(client.result(jobs[i]), specs[i]);
  }
  // The cluster actually used more than one backend for 4 distinct
  // fingerprints over 2x2 arrays.
  const ForwarderStats stats = cluster.forwarder->forwarder_stats();
  EXPECT_EQ(stats.submitted, specs.size());
  EXPECT_EQ(stats.failovers, 0u);
}

TEST(Cluster, FrontIdsAreClusterScopedAndNameOpsResolve) {
  Cluster cluster;
  Client client = cluster.client();
  const sched::MissionSpec a = quick_spec("named-a", 3);
  const sched::MissionSpec b = quick_spec("named-b", 4);
  const Client::Submitted sa = client.submit(a);
  const Client::Submitted sb = client.submit(b);
  ASSERT_TRUE(sa.ok && sb.ok);
  EXPECT_NE(sa.job, sb.job);  // front ids, not backend ids

  // Name-keyed status/result resolve through the route table.
  const Json status = client.status_by_name("named-b");
  EXPECT_TRUE(status.get_bool("ok", false));
  EXPECT_EQ(static_cast<std::uint64_t>(status.get_number("job", 0)), sb.job);
  expect_matches_standalone(client.result_by_name("named-a"), a);

  const Json missing = client.status_by_name("never-submitted");
  EXPECT_FALSE(missing.get_bool("ok", false));
  EXPECT_EQ(missing.get_string("code", ""), "unknown_job");
}

TEST(Cluster, BatchSubmitRoutesPerSpecAndPreservesOrder) {
  Cluster cluster;
  Client client = cluster.client();
  const std::vector<sched::MissionSpec> specs{
      quick_spec("b0", 7), quick_spec("b1", 8), quick_spec("b2", 9)};
  const Client::BatchSubmitted batch = client.submit_batch(specs);
  ASSERT_TRUE(batch.ok) << batch.error;
  ASSERT_EQ(batch.jobs.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_matches_standalone(client.result(batch.jobs[i]), specs[i]);
  }
}

TEST(Cluster, WatchStreamsThroughTheFront) {
  Cluster cluster;
  Client client = cluster.client();
  const sched::MissionSpec spec = quick_spec("watched", 3, 40);
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok);

  std::atomic<std::uint64_t> last_waves{0};
  std::atomic<int> events{0};
  const std::string status = client.watch(
      submitted.job,
      [&](std::uint64_t waves) {
        last_waves.store(waves);
        ++events;
      },
      /*every=*/5);
  EXPECT_EQ(status, "done");
  EXPECT_GT(events.load(), 0);
  EXPECT_GT(last_waves.load(), 0u);
}

TEST(Cluster, FinishedRouteAnswersWithTheDaemonsFields) {
  // The front's answers for a finished mission carry what its daemon's
  // do: status lanes/waves/sim_ns, the list row's waves and the done
  // frame's waves, on the live watch path and on a finished route.
  Cluster cluster(1);
  Client front = cluster.client();
  const sched::MissionSpec spec = quick_spec("twelve", 5, 12);
  const Client::Submitted submitted = front.submit(spec);
  ASSERT_TRUE(submitted.ok);
  std::uint64_t live_waves = 0;
  EXPECT_EQ(front.watch(submitted.job, {}, 1, {}, &live_waves), "done");
  const Json result = front.result(submitted.job);  // finishes the route
  ASSERT_EQ(result.get_string("status", "?"), "done");

  Client daemon(cluster.servers[0]->port());
  const Json daemon_status = daemon.status_by_name(spec.name);
  ASSERT_TRUE(daemon_status.get_bool("ok", false));
  const double waves = daemon_status.get_number("waves", 0);
  EXPECT_GT(waves, 0.0);
  EXPECT_EQ(static_cast<double>(live_waves), waves);

  const Json status = front.status(submitted.job);
  ASSERT_TRUE(status.get_bool("ok", false));
  EXPECT_EQ(status.get_string("status", "?"), "done");
  for (const char* field : {"lanes", "waves", "sim_ns"}) {
    ASSERT_NE(status.get(field), nullptr) << field;
    ASSERT_NE(daemon_status.get(field), nullptr) << field;
    EXPECT_EQ(status.get(field)->dump(), daemon_status.get(field)->dump())
        << field;
  }

  const Json front_list = front.list();
  const Json daemon_list = daemon.list();
  ASSERT_EQ(front_list.get("jobs")->as_array().size(), 1u);
  ASSERT_EQ(daemon_list.get("jobs")->as_array().size(), 1u);
  EXPECT_EQ(front_list.get("jobs")->as_array()[0].get_number("waves", -1),
            daemon_list.get("jobs")->as_array()[0].get_number("waves", -2));

  std::uint64_t finished_waves = 0;
  EXPECT_EQ(front.watch(submitted.job, {}, 1, {}, &finished_waves), "done");
  EXPECT_EQ(static_cast<double>(finished_waves), waves);
  std::uint64_t daemon_waves = 0;
  EXPECT_EQ(daemon.watch(static_cast<std::uint64_t>(
                             daemon_status.get_number("job", 0)),
                         {}, 1, {}, &daemon_waves),
            "done");
  EXPECT_EQ(finished_waves, daemon_waves);
}

TEST(Cluster, RepeatFingerprintsGainAffinity) {
  Cluster cluster;
  Client client = cluster.client();
  // Same fingerprint five times (distinct names): after the first
  // placement the rest must be affinity hits on the same backend.
  for (int i = 0; i < 5; ++i) {
    const Client::Submitted submitted =
        client.submit(quick_spec("rep-" + std::to_string(i), 21));
    ASSERT_TRUE(submitted.ok);
    static_cast<void>(client.result(submitted.job));
  }
  Json request = Json::object();
  request.set("op", "stats");
  const Json stats = client.request(request);
  const Json* placement = stats.get("placement");
  ASSERT_NE(placement, nullptr);
  EXPECT_GE(placement->get_number("affinity_hits", 0), 4.0);
}

// --- cluster views ----------------------------------------------------------

TEST(Cluster, StatsExposeClusterAndForwarderSections) {
  Cluster cluster;
  Client client = cluster.client();
  const Client::Submitted submitted = client.submit(quick_spec("sv", 3));
  ASSERT_TRUE(submitted.ok);
  static_cast<void>(client.result(submitted.job));

  const Json stats = client.stats();
  ASSERT_TRUE(stats.get_bool("ok", false));
  EXPECT_EQ(stats.get_string("role", ""), "forwarder");
  const Json* cluster_section = stats.get("cluster");
  ASSERT_NE(cluster_section, nullptr);
  const Json* backends = cluster_section->get("backends");
  ASSERT_NE(backends, nullptr);
  ASSERT_TRUE(backends->is_array());
  EXPECT_EQ(backends->as_array().size(), 2u);
  for (const Json& backend : backends->as_array()) {
    EXPECT_TRUE(backend.get_bool("reachable", false));
  }
  const Json* forwarder = stats.get("forwarder");
  ASSERT_NE(forwarder, nullptr);
  EXPECT_EQ(forwarder->get_number("submitted", 0), 1.0);
  EXPECT_EQ(forwarder->get_number("backends_up", 0), 2.0);
  // The aggregate "pool" section sums backend arrays: generic tooling
  // (mpa ps) reads the same keys it reads from a daemon.
  const Json* pool = stats.get("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->get_number("arrays", 0), 4.0);
}

TEST(Cluster, HealthAggregatesBackends) {
  Cluster cluster;
  Client client = cluster.client();
  Json request = Json::object();
  request.set("op", "health");
  const Json health = client.request(request);
  ASSERT_TRUE(health.get_bool("ok", false));
  EXPECT_TRUE(health.get_bool("cluster", false));
  const Json* backends = health.get("backends");
  ASSERT_NE(backends, nullptr);
  ASSERT_TRUE(backends->is_array());
  EXPECT_EQ(backends->as_array().size(), 2u);
  EXPECT_EQ(health.get_number("healthy", 0), 4.0);
  EXPECT_EQ(health.get_number("unreachable", 0), 0.0);
}

TEST(Cluster, ListShowsRoutesWithBackends) {
  Cluster cluster;
  Client client = cluster.client();
  const Client::Submitted submitted = client.submit(quick_spec("ls", 3));
  ASSERT_TRUE(submitted.ok);
  static_cast<void>(client.result(submitted.job));

  const Json list = client.list();
  ASSERT_TRUE(list.get_bool("ok", false));
  const Json* jobs = list.get("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_TRUE(jobs->is_array());
  ASSERT_EQ(jobs->as_array().size(), 1u);
  const Json& entry = jobs->as_array()[0];
  EXPECT_EQ(entry.get_string("name", "?"), "ls");
  EXPECT_EQ(entry.get_string("status", "?"), "done");
  EXPECT_NE(entry.get("backend"), nullptr);
}

// --- drain ------------------------------------------------------------------

TEST(Cluster, DrainFansOutAndRefusesNewMissions) {
  Cluster cluster;
  Client client = cluster.client();
  const Json drained = client.drain(/*wait=*/true);
  EXPECT_TRUE(drained.get_bool("ok", false));

  const Client::Submitted refused = client.submit(quick_spec("late", 3));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, "draining");
  // The fan-out reached the backends too: a direct submit is refused.
  Client direct(cluster.servers[0]->port());
  const Client::Submitted backend_refused =
      direct.submit(quick_spec("late2", 3));
  EXPECT_FALSE(backend_refused.ok);
  EXPECT_EQ(backend_refused.code, "draining");
}

// --- membership armor: epochs, fencing, rejoin, shedding --------------------

TEST(Forwarder, RevivalBackoffIsSeededDeterministicAndBounded) {
  for (int round = 0; round <= 12; ++round) {
    for (std::size_t index = 0; index < 3; ++index) {
      const std::uint64_t delay =
          Forwarder::backoff_delay_ns(50, 99, index, round);
      // Pure: replaying the same (seed, backend, round) replays the
      // exact revival schedule — the chaos-smoke reproducibility
      // contract.
      EXPECT_EQ(delay, Forwarder::backoff_delay_ns(50, 99, index, round));
      // Bounded: exponential base capped at max(poll, 10 s), jitter
      // strictly under half the base.
      const std::uint64_t base_ms =
          std::min<std::uint64_t>(50ULL << std::min(round, 6), 10'000);
      EXPECT_GE(delay, base_ms * 1'000'000ULL);
      EXPECT_LT(delay, base_ms * 3 / 2 * 1'000'000ULL + 1'000'000ULL);
    }
  }
  // A different seed decorrelates the fleet's schedule (some round must
  // draw different jitter — identical across ALL rounds would mean the
  // seed is ignored).
  bool diverged = false;
  for (int round = 0; round <= 12 && !diverged; ++round) {
    diverged = Forwarder::backoff_delay_ns(50, 99, 0, round) !=
               Forwarder::backoff_delay_ns(50, 7, 0, round);
  }
  EXPECT_TRUE(diverged);
}

TEST(Cluster, SplitBrainFenceCancelsTheStalledIncarnationExactlyOnce) {
  Cluster cluster;  // poll_ms = 50: revival polls land within the test
  Client client = cluster.client();
  // Long enough that the stalled copy is still mid-run when the revival
  // fence reaches it (the fence poll lands within a few hundred ms).
  const sched::MissionSpec spec = quick_spec("split-brain", 3, 2000);
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  wait_for_waves(client, submitted.job, 2);
  const Json status = client.status(submitted.job);
  const auto victim =
      static_cast<std::size_t>(status.get_number("backend", 0));

  // Declare the hosting backend dead while its server keeps executing —
  // the SIGSTOP shape of a split brain. The route fails over; the
  // "corpse" keeps running its now-orphaned incarnation.
  cluster.forwarder->mark_backend_down(victim);

  // The poller revives the corpse (same epoch: stalled, not restarted)
  // and must fence the stalled incarnation BY NAME before trusting it.
  ASSERT_TRUE(wait_until([&] {
    return cluster.forwarder->forwarder_stats().rejoins >= 1;
  })) << "backend never rejoined";
  const ForwarderStats stats = cluster.forwarder->forwarder_stats();
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(stats.fences, 1u);

  // The rejoin implies the fence already ran: the corpse's copy was
  // cancelled BY NAME, so it can never surface a second answer.
  Client corpse(cluster.servers[victim]->port());
  ASSERT_TRUE(wait_until([&] {
    const Json zombie = corpse.status_by_name("split-brain");
    const std::string state = zombie.get_string("status", "");
    return state == "cancelled" || state == "failed";
  })) << "stalled incarnation was never fenced";

  // Exactly one execution reaches a terminal result: the survivor's —
  // bit-identical to an uninterrupted standalone run.
  const Json result = client.result(submitted.job);
  expect_matches_standalone(result, spec);

  // Repeat reads serve the same cached terminal payload (first wins).
  EXPECT_EQ(client.result(submitted.job).dump(), result.dump());

  // The fence is visible in the membership table too.
  const Json members = backend_list(client);
  ASSERT_TRUE(members.get_bool("ok", false));
  const Json& row = members.get("backends")->as_array()[victim];
  EXPECT_GE(row.get_number("rejoins", 0), 1.0);
  EXPECT_GE(row.get_number("fences", 0), 1.0);
  EXPECT_NE(row.get_string("last_fence", "").find("fenced"),
            std::string::npos);
}

TEST(Cluster, ColdRejoinAfterRestartBumpsEpochAndIsVisible) {
  // Backend 0 is durable so its identity survives the restart with a
  // bumped epoch; backend 1 keeps the cluster alive in between.
  const std::string dir = testing::TempDir() + "ehw_cluster_epoch";
  static_cast<void>(remove_file(dir + "/instance.json"));
  static_cast<void>(remove_file(dir + "/journal.jsonl"));
  static_cast<void>(remove_file(dir + "/warm.json"));
  ServerConfig c0 = backend_config(2);
  c0.journal_dir = dir;
  auto b0 = std::make_unique<Server>(c0);
  Server b1(backend_config(2));

  ForwarderConfig fc;
  BackendConfig e0;
  e0.port = b0->port();
  BackendConfig e1;
  e1.port = b1.port();
  fc.backends = {e0, e1};
  fc.poll_ms = 50;
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());

  // The boot poll learned the first incarnation's identity.
  {
    const Json members = backend_list(client);
    ASSERT_TRUE(members.get_bool("ok", false));
    const Json& row = members.get("backends")->as_array()[0];
    EXPECT_TRUE(row.get_bool("reachable", false));
    EXPECT_EQ(row.get_number("epoch", 0), 1.0);
  }

  const std::uint16_t port = b0->port();
  b0->stop();
  ASSERT_TRUE(wait_until([&] {
    const Json members = backend_list(client);
    return !members.get("backends")->as_array()[0].get_bool("reachable",
                                                            true);
  })) << "dead backend never declared down";

  // Same journal, same port, new process: epoch 1 -> 2. The auto-rejoin
  // must classify this as a COLD rejoin (warm state gone).
  c0.port = port;
  b0 = std::make_unique<Server>(c0);
  ASSERT_TRUE(wait_until([&] {
    const Json members = backend_list(client);
    const Json& row = members.get("backends")->as_array()[0];
    return row.get_bool("reachable", false) &&
           row.get_number("epoch", 0) == 2.0;
  })) << "restarted backend never rejoined with the bumped epoch";
  {
    const Json members = backend_list(client);
    const Json& row = members.get("backends")->as_array()[0];
    EXPECT_NE(row.get_string("last_fence", "").find("cold rejoin: epoch 1 -> 2"),
              std::string::npos);
    EXPECT_GE(row.get_number("rejoins", 0), 1.0);
  }
  EXPECT_GE(forwarder.forwarder_stats().rejoins, 1u);

  // The revived member serves missions, bit-identical as ever.
  const sched::MissionSpec spec = quick_spec("after-rejoin", 9);
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  expect_matches_standalone(client.result(submitted.job), spec);

  forwarder.stop();
  b0->stop();
  b1.stop();
}

TEST(Cluster, BrownoutShedsLowPriorityWhenEveryBackendIsStacked) {
  // Two 1-array backends. One endless runner each occupies the array;
  // one queued mission each makes the cluster SATURATED (work stacked
  // everywhere), which is the brownout admission trigger.
  std::vector<std::unique_ptr<Server>> servers;
  for (int i = 0; i < 2; ++i) {
    ServerConfig config = backend_config(1);
    config.max_inflight = 8;  // plenty of queue: shedding is the FORWARDER's
    servers.push_back(std::make_unique<Server>(config));
  }
  ForwarderConfig fc;
  for (const auto& server : servers) {
    BackendConfig backend;
    backend.port = server->port();
    fc.backends.push_back(backend);
  }
  fc.poll_ms = 50;
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());

  std::vector<std::uint64_t> runners;
  // The hogs never finish on their own; cancel them on EVERY exit path
  // or the forwarder's drain would wait on them forever.
  struct CancelRunners {
    Client& client;
    std::vector<std::uint64_t>& jobs;
    ~CancelRunners() {
      for (const std::uint64_t job : jobs) {
        static_cast<void>(client.cancel(job));
      }
    }
  } cancel_guard{client, runners};
  for (int i = 0; i < 2; ++i) {
    const Client::Submitted hog = client.submit(
        quick_spec("hog-" + std::to_string(i), 50 + static_cast<unsigned>(i),
                   100000000));
    ASSERT_TRUE(hog.ok) << hog.error;
    runners.push_back(hog.job);
  }
  for (int i = 0; i < 2; ++i) {
    const Client::Submitted stacked = client.submit(quick_spec(
        "stack-" + std::to_string(i), 60 + static_cast<unsigned>(i), 5));
    ASSERT_TRUE(stacked.ok) << stacked.error;
  }
  // The shed predicate reads polled queue depths; wait for the poll to
  // see work stacked on every backend.
  ASSERT_TRUE(wait_until([&] {
    const Json stats = client.stats();
    const Json* backends = stats.get("cluster")->get("backends");
    for (const Json& row : backends->as_array()) {
      if (row.get_number("queued", 0) < 1.0) return false;
    }
    return true;
  })) << "queues never showed as stacked";

  // Default priority (0) is shed with explicit backpressure...
  const Client::Submitted shed =
      client.submit(quick_spec("shed-me", 70, 5));
  ASSERT_FALSE(shed.ok);
  EXPECT_EQ(shed.code, "queue_full");
  EXPECT_GE(shed.retry_after_ms, 100u);
  EXPECT_GE(forwarder.forwarder_stats().shed, 1u);

  // ...an all-low batch is refused wholesale...
  const Client::BatchSubmitted batch = client.submit_batch(
      {quick_spec("shed-b0", 71, 5), quick_spec("shed-b1", 72, 5)});
  ASSERT_FALSE(batch.ok);
  EXPECT_EQ(batch.code, "queue_full");

  // ...while priority > 0 rides through the brownout and queues.
  sched::MissionSpec urgent = quick_spec("urgent", 73, 5);
  urgent.priority = 1;
  const Client::Submitted accepted = client.submit(urgent);
  ASSERT_TRUE(accepted.ok) << accepted.error;

  // Unstack: cancel the hogs; everything queued completes normally.
  for (const std::uint64_t job : runners) {
    EXPECT_TRUE(client.cancel(job));
  }
  runners.clear();  // the guard's work is done
  expect_matches_standalone(client.result(accepted.job), urgent);

  forwarder.stop();
  for (const auto& server : servers) server->stop();
}

TEST(Cluster, BackendAddAndRemoveReshapeMembershipLive) {
  Cluster cluster;  // 2 backends
  Client client = cluster.client();
  const sched::MissionSpec spec = quick_spec("evacuee", 3, 200);
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  wait_for_waves(client, submitted.job, 2);
  const auto victim = static_cast<std::size_t>(
      client.status(submitted.job).get_number("backend", 0));

  // Grow the cluster live: the new member is polled before add returns.
  Server extra(backend_config(2));
  Json add = Json::object();
  add.set("op", "backend");
  add.set("action", "add");
  add.set("address", "127.0.0.1");
  add.set("port", static_cast<std::uint64_t>(extra.port()));
  const Json added = client.request(add);
  ASSERT_TRUE(added.get_bool("ok", false))
      << added.get_string("error", "");
  EXPECT_EQ(added.get_number("backend", 0), 2.0);
  EXPECT_TRUE(added.get_bool("reachable", false));
  EXPECT_EQ(added.get_number("epoch", 0), 1.0);

  // Tombstone the member hosting the running mission: its route must
  // evacuate to the survivors and still finish bit-identical.
  Json remove = Json::object();
  remove.set("op", "backend");
  remove.set("action", "remove");
  remove.set("backend", static_cast<std::uint64_t>(victim));
  const Json removed = client.request(remove);
  ASSERT_TRUE(removed.get_bool("ok", false))
      << removed.get_string("error", "");
  EXPECT_EQ(removed.get_number("evacuated", 0), 1.0);
  expect_matches_standalone(client.result(submitted.job), spec);
  EXPECT_GE(cluster.forwarder->forwarder_stats().failovers, 1u);

  // The tombstone stays visible (indices never shift) and is idempotent.
  const Json members = backend_list(client);
  EXPECT_TRUE(
      members.get("backends")->as_array()[victim].get_bool("removed", false));
  EXPECT_TRUE(client.request(remove).get_bool("ok", false));

  // The last member can never be removed: the cluster must stay placeable.
  for (std::size_t i = 0; i < 3; ++i) {
    if (i == victim) continue;
    Json request = Json::object();
    request.set("op", "backend");
    request.set("action", "remove");
    request.set("backend", static_cast<std::uint64_t>(i));
    const Json response = client.request(request);
    if (response.get_bool("ok", false)) continue;
    EXPECT_NE(response.get_string("error", "").find("last backend"),
              std::string::npos);
  }
  // Exactly one member survived, and it still serves.
  const sched::MissionSpec after = quick_spec("after-remove", 11);
  const Client::Submitted last = client.submit(after);
  ASSERT_TRUE(last.ok) << last.error;
  expect_matches_standalone(client.result(last.job), after);
  extra.stop();
}

// --- pooled southbound connections -----------------------------------------

/// The `stats` service section's accepted-connection count of a daemon.
double accepted_connections(Client& direct) {
  return direct.stats().get("service")->get_number("connections", 0);
}

/// Polls the front has made, summed over its backends (each poll connects
/// afresh, outside the pool).
double front_polls(Client& front) {
  double polls = 0;
  const Json stats = front.stats();
  for (const Json& row :
       stats.get("cluster")->get("backends")->as_array()) {
    polls += row.get_number("polls", 0);
  }
  return polls;
}

/// One health round trip through the front (a lease per backend).
Json health_op(Client& client) {
  Json request = Json::object();
  request.set("op", "health");
  return client.request(request);
}

TEST(Cluster, SequentialOpsReusePooledSouthboundConnections) {
  Cluster cluster;
  Client client = cluster.client();
  Client direct0(cluster.servers[0]->port());
  Client direct1(cluster.servers[1]->port());
  const auto connections = [&] {
    return accepted_connections(direct0) + accepted_connections(direct1);
  };
  const double polls_before = front_polls(client);
  const double connections_before = connections();
  constexpr int kCycles = 40;
  for (int i = 0; i < kCycles; ++i) {
    const sched::MissionSpec spec =
        quick_spec("cycle" + std::to_string(i), 3, 6);
    const Client::Submitted submitted = client.submit(spec);
    ASSERT_TRUE(submitted.ok) << submitted.error;
    ASSERT_TRUE(client.status(submitted.job).get_bool("ok", false));
    ASSERT_EQ(client.result(submitted.job).get_string("status", ""), "done");
  }
  const double opened = connections() - connections_before;
  const double polled = front_polls(client) - polls_before;
  // A front that connects per op opens 3 * kCycles = 120 here.
  EXPECT_LE(opened,
            static_cast<double>(2 * ClientPool::kMaxIdle) + polled)
      << "polls in the window: " << polled;
  const ForwarderStats stats = cluster.forwarder->forwarder_stats();
  EXPECT_GE(stats.southbound_reuses, 10 * stats.southbound_connects);
  const Json forwarder = *client.stats().get("forwarder");
  EXPECT_EQ(forwarder.get_number("southbound_reuses", -1),
            static_cast<double>(stats.southbound_reuses));
  EXPECT_EQ(forwarder.get_number("southbound_connects", -1),
            static_cast<double>(stats.southbound_connects));
}

TEST(Cluster, RestartedBackendNeverRidesTheDeadIncarnationsConnection) {
  const std::string dir = testing::TempDir() + "ehw_cluster_pool_restart";
  static_cast<void>(remove_file(dir + "/instance.json"));
  static_cast<void>(remove_file(dir + "/journal.jsonl"));
  static_cast<void>(remove_file(dir + "/warm.json"));
  ServerConfig config = backend_config(2);
  config.journal_dir = dir;
  auto backend = std::make_unique<Server>(config);
  ForwarderConfig fc;
  BackendConfig endpoint;
  endpoint.port = backend->port();
  fc.backends = {endpoint};
  // No poll after the boot one: only the lease's liveness check can
  // notice the restart.
  fc.poll_ms = 600'000;
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());

  const sched::MissionSpec before = quick_spec("before-restart", 3);
  const Client::Submitted first = client.submit(before);
  ASSERT_TRUE(first.ok) << first.error;
  expect_matches_standalone(client.result(first.job), before);
  const ForwarderStats pooled = forwarder.forwarder_stats();
  ASSERT_GE(pooled.southbound_reuses, 1u);  // the result rode the submit's

  const std::uint16_t port = backend->port();
  backend->stop();
  backend.reset();
  config.port = port;
  backend = std::make_unique<Server>(config);
  ASSERT_EQ(backend->epoch(), 2u);

  // The idle connection to epoch 1 is dead; writing the submit on it
  // would lose the mission. The lease must discard it and connect anew.
  const sched::MissionSpec after = quick_spec("after-restart", 5);
  const Client::Submitted second = client.submit(after);
  ASSERT_TRUE(second.ok) << second.error;
  expect_matches_standalone(client.result(second.job), after);
  const ForwarderStats now = forwarder.forwarder_stats();
  EXPECT_EQ(now.southbound_connects, pooled.southbound_connects + 1);
  EXPECT_EQ(backend->service_stats().submitted, 1u);

  forwarder.stop();
  backend->stop();
}

TEST(Cluster, IdledOutPooledSessionIsDiscardedAndTheOpSucceeds) {
  ServerConfig config = backend_config(2);
  config.idle_timeout_ms = 100;
  Server backend(config);
  ForwarderConfig fc;
  BackendConfig endpoint;
  endpoint.port = backend.port();
  fc.backends = {endpoint};
  fc.poll_ms = 600'000;  // no poll sessions: every backend session is pooled
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());

  ASSERT_EQ(health_op(client).get_number("unreachable", 1), 0.0);
  const ForwarderStats pooled = forwarder.forwarder_stats();
  // The gap between ops outlasts the backend's idle timeout: it answers
  // the pooled session "idle_timeout" and closes it.
  ASSERT_TRUE(wait_until(
      [&] { return backend.service_stats().sessions_open == 0; }))
      << "the backend never idled the pooled session out";

  ASSERT_EQ(health_op(client).get_number("unreachable", 1), 0.0);
  const ForwarderStats now = forwarder.forwarder_stats();
  EXPECT_EQ(now.southbound_connects, pooled.southbound_connects + 1);
  EXPECT_EQ(now.southbound_reuses, pooled.southbound_reuses);
  const sched::MissionSpec spec = quick_spec("after-idle", 4);
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  expect_matches_standalone(client.result(submitted.job), spec);
  forwarder.stop();
  backend.stop();
}

TEST(Cluster, BackendRemoveLeavesNoIdleConnectionToTheSlot) {
  Cluster cluster;  // 2 backends
  Client client = cluster.client();
  Server extra(backend_config(2));
  Json add = Json::object();
  add.set("op", "backend");
  add.set("action", "add");
  add.set("port", static_cast<std::uint64_t>(extra.port()));
  const Json added = client.request(add);
  ASSERT_TRUE(added.get_bool("ok", false)) << added.get_string("error", "");
  const auto index = static_cast<std::uint64_t>(added.get_number("backend", 0));
  // A health fan-out leaves a pooled connection there.
  ASSERT_EQ(health_op(client).get_number("unreachable", 1), 0.0);
  EXPECT_GE(extra.service_stats().sessions_open, 1u);

  Json remove = Json::object();
  remove.set("op", "backend");
  remove.set("action", "remove");
  remove.set("backend", index);
  ASSERT_TRUE(client.request(remove).get_bool("ok", false));
  ASSERT_TRUE(wait_until(
      [&] { return extra.service_stats().sessions_open == 0; }))
      << "the front kept a connection to the removed backend";

  // Nothing reaches the tombstone any more; the survivors still serve.
  const std::uint64_t accepted = extra.service_stats().connections;
  ASSERT_EQ(health_op(client).get_number("unreachable", 1), 0.0);
  const sched::MissionSpec spec = quick_spec("after-remove", 6);
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  expect_matches_standalone(client.result(submitted.job), spec);
  EXPECT_EQ(extra.service_stats().connections, accepted);
  extra.stop();
}

TEST(Cluster, IdleTimeoutAnswerOnAReusedConnectionRunsOnceMoreOnAFreshOne) {
  Server backend(backend_config(2));
  ForwarderConfig fc;
  BackendConfig endpoint;
  endpoint.port = backend.port();
  fc.backends = {endpoint};
  fc.poll_ms = 600'000;  // no poll session reads a frame under the plan
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());
  ASSERT_EQ(health_op(client).get_number("unreachable", 1), 0.0);

  // Requests read by any session, in causal order: 1 the front reads the
  // submit, 2 the backend reads the forwarded copy off the pooled
  // connection, 3-4 hello and submit on a fresh one; 5-8 the same for
  // the result. Hits 2 and 6 fire: the backend drops the request and
  // answers idle_timeout, as when its idle bound expires between the
  // lease's liveness check and the request. One plan for both ops: the
  // session threads stay alive, so the plan is never rewritten under
  // them.
  const fault::ScopedPlan plan("session_idle=after:1,every:4,count:2");
  const sched::MissionSpec spec = quick_spec("raced", 8);
  ForwarderStats before = forwarder.forwarder_stats();
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.code << ": " << submitted.error;
  EXPECT_EQ(fault::fired(fault::Site::kSessionIdle), 1u);
  ForwarderStats after = forwarder.forwarder_stats();
  EXPECT_EQ(after.southbound_reuses, before.southbound_reuses + 1);
  EXPECT_EQ(after.southbound_connects, before.southbound_connects + 1);

  before = after;
  const Json result = client.result(submitted.job);
  EXPECT_EQ(fault::fired(fault::Site::kSessionIdle), 2u);
  expect_matches_standalone(result, spec);
  after = forwarder.forwarder_stats();
  EXPECT_EQ(after.southbound_reuses, before.southbound_reuses + 1);
  EXPECT_EQ(after.southbound_connects, before.southbound_connects + 1);
  // The dropped submit never ran, and the route holds the real result.
  EXPECT_EQ(backend.service_stats().submitted, 1u);
  EXPECT_EQ(client.result(submitted.job).dump(), result.dump());
  forwarder.stop();
  backend.stop();
}

TEST(Cluster, RefusedResultIsNotRecordedAsTheRoutesAnswer) {
  Server backend(backend_config(2));
  ForwarderConfig fc;
  BackendConfig endpoint;
  endpoint.port = backend.port();
  fc.backends = {endpoint};
  fc.poll_ms = 600'000;  // no poll session reads a frame under the plan
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());
  const sched::MissionSpec spec = quick_spec("refused", 10);
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;

  Json refused;
  {
    // 1 the front reads the result request, 2 the backend reads it off
    // the pooled connection (fires), 3-4 hello and result on the fresh
    // connection (4 fires): no retry is left, the refusal comes back.
    const fault::ScopedPlan plan("session_idle=after:1,every:2,count:2");
    refused = client.result(submitted.job);
    EXPECT_EQ(fault::fired(fault::Site::kSessionIdle), 2u);
  }
  EXPECT_FALSE(refused.get_bool("ok", true));
  EXPECT_EQ(refused.get_string("code", ""), "idle_timeout");
  // The route did not finish on the refusal: the next read is served.
  expect_matches_standalone(client.result(submitted.job), spec);
  forwarder.stop();
  backend.stop();
}

TEST(Cluster, SubmitLostOnAReusedConnectionIsFencedOnRevival) {
  Server backend(backend_config(2));
  ForwarderConfig fc;
  BackendConfig endpoint;
  endpoint.port = backend.port();
  fc.backends = {endpoint};
  fc.poll_ms = 400;
  Forwarder forwarder(std::move(fc));
  Client client(forwarder.port());
  // However the test ends, the endless mission is cancelled, so the
  // backend's stop() does not wait for it.
  struct CancelZombie {
    ~CancelZombie() {
      Json cancel = Json::object();
      cancel.set("op", "cancel");
      cancel.set("job", "zombie");
      try {
        static_cast<void>(Client(port).request(cancel));
      } catch (const std::exception&) {
        // Already stopped: the zombie finished cancelled.
      }
    }
    std::uint16_t port;
  } cancel_zombie{backend.port()};
  ASSERT_EQ(health_op(client).get_number("unreachable", 1), 0.0);

  // Start right after a poll, so the next one (and its socket writes)
  // comes well after the plan below is gone.
  const double polls = front_polls(client);
  ASSERT_TRUE(wait_until([&] { return front_polls(client) > polls; }));
  Client::Submitted lost;
  {
    // Writes in causal order: 1 the client's submit, 2 the front's copy
    // on the pooled connection, 3 the backend's ack. The ack fails and
    // the backend closes the session, with the mission accepted.
    const fault::ScopedPlan plan("sock_write_error=after:2,count:1");
    lost = client.submit(quick_spec("zombie", 9, 100'000'000));
    EXPECT_EQ(fault::fired(fault::Site::kSockWriteError), 1u);
  }
  EXPECT_FALSE(lost.ok);
  EXPECT_EQ(lost.code, "no_backend");
  EXPECT_EQ(backend.service_stats().submitted, 1u);

  // The front never learnt the backend's job; on revival the fence
  // cancels it by name.
  forwarder.mark_backend_down(0);
  ASSERT_TRUE(
      wait_until([&] { return forwarder.forwarder_stats().rejoins == 1; }));
  EXPECT_EQ(forwarder.forwarder_stats().fences, 1u);
  Client direct(backend.port());
  ASSERT_TRUE(wait_until([&] {
    return direct.status_by_name("zombie").get_string("status", "") ==
           "cancelled";
  }));
  forwarder.stop();
  backend.stop();
}

// --- the route table bound --------------------------------------------------

/// The two route flags the forwarder's pruning reads.
struct RouteFlags {
  bool finished = false;           // the front holds the terminal answer
  bool capacity_released = false;  // seen terminal on its incarnation
};

TEST(Forwarder, RouteBoundEvictsFinishedRoutesOldestFirstNeverLiveOnes) {
  // A daemon keeps as many finished jobs by default.
  EXPECT_EQ(Forwarder::kMaxRoutes, ServerConfig{}.max_job_records);
  std::map<std::uint64_t, std::shared_ptr<RouteFlags>> routes;
  const auto add = [&](std::uint64_t id, bool finished, bool released) {
    routes.emplace(id, std::make_shared<RouteFlags>(
                           RouteFlags{finished, released}));
  };
  const auto ids = [&] {
    std::vector<std::uint64_t> out;
    for (const auto& [id, route] : routes) out.push_back(id);
    return out;
  };
  // The forwarder's predicate: its route is finished once the front
  // holds the answer or saw the route terminal on its incarnation.
  const auto finished = [](const RouteFlags& route) {
    return route.finished || route.capacity_released;
  };
  add(1, false, false);  // the oldest, still live
  add(2, true, true);
  add(3, false, true);   // terminal, result not read yet
  add(4, true, true);
  add(5, false, false);  // live
  add(6, true, true);
  prune_finished(routes, 3, finished);
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{1, 5, 6}));
  prune_finished(routes, 3, finished);  // at the bound: nothing to do
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{1, 5, 6}));
  // Live routes stay whatever the bound: only the finished one goes.
  prune_finished(routes, 1, finished);
  EXPECT_EQ(ids(), (std::vector<std::uint64_t>{1, 5}));
}

// --- the shared session layer on the front ---------------------------------

TEST(ClusterFront, AnswersTraceInAllFourModes) {
  // The tracer is process-global: leave it armed or disarmed as found.
  struct RestoreTracer {
    bool armed = obs::Tracer::armed();
    ~RestoreTracer() {
      if (armed) {
        obs::Tracer::global().arm();
      } else {
        obs::Tracer::global().disarm();
      }
    }
  } restore;
  Cluster cluster;
  Client client = cluster.client();

  const Json armed = trace_op(client, "arm");
  ASSERT_TRUE(armed.get_bool("ok", false)) << armed.get_string("error", "");
  EXPECT_TRUE(armed.get_bool("armed", false));
  // A routed mission makes the front record its southbound round trips.
  const Client::Submitted submitted = client.submit(quick_spec("traced", 3));
  ASSERT_TRUE(submitted.ok) << submitted.error;
  static_cast<void>(client.result(submitted.job));

  const Json dump = trace_op(client, "dump");
  ASSERT_TRUE(dump.get_bool("ok", false));
  const Json* trace = dump.get("trace");
  ASSERT_NE(trace, nullptr);
  const Json* events = trace->get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool roundtrip = false;
  for (const Json& event : events->as_array()) {
    roundtrip = roundtrip || event.get_string("name", "") == "rpc_roundtrip";
  }
  EXPECT_TRUE(roundtrip);

  const Json disarmed = trace_op(client, "disarm");
  ASSERT_TRUE(disarmed.get_bool("ok", false));
  EXPECT_FALSE(disarmed.get_bool("armed", true));
  EXPECT_FALSE(obs::Tracer::armed());

  const Json cleared = trace_op(client, "clear");
  ASSERT_TRUE(cleared.get_bool("ok", false));
  EXPECT_EQ(cleared.get_number("recorded", -1), 0.0);

  // Exactly a daemon's reply: same keys in the same order, and the same
  // refusal of an unknown mode.
  Client direct(cluster.servers[0]->port());
  EXPECT_EQ(key_order(trace_op(direct, "disarm")), key_order(disarmed));
  EXPECT_EQ(trace_op(client, "rewind").get_string("code", ""),
            "bad_request");
}

TEST(ClusterFront, FrameArmorHoldsOnTheFront) {
  Server backend(backend_config(1));
  ForwarderConfig config;
  BackendConfig endpoint;
  endpoint.port = backend.port();
  config.backends.push_back(endpoint);
  config.max_line = 4096;
  config.idle_timeout_ms = 300;
  Forwarder forwarder(std::move(config));
  std::string line;

  {
    LineChannel channel(Socket::connect_to("127.0.0.1", forwarder.port()));
    ASSERT_TRUE(channel.read_line(line));
    const Json greeting = Json::parse(line);
    EXPECT_EQ(key_order(greeting), "event,service,protocol,version,role,");
    EXPECT_EQ(greeting.get_string("role", ""), "forwarder");
    ASSERT_TRUE(channel.write_line(R"({"op":"hello","protocol":1})"));
    ASSERT_TRUE(channel.read_line(line));
    EXPECT_EQ(key_order(Json::parse(line)),
              "ok,service,protocol,version,role,");

    // Malformed frame: an error response, connection stays usable.
    ASSERT_TRUE(channel.write_line("this is not json"));
    ASSERT_TRUE(channel.read_line(line));
    EXPECT_EQ(Json::parse(line).get_string("code", ""), "bad_request");

    // Unknown op, with the request id echoed back.
    ASSERT_TRUE(channel.write_line(R"({"op":"transmogrify","id":42})"));
    ASSERT_TRUE(channel.read_line(line));
    const Json unknown = Json::parse(line);
    EXPECT_EQ(unknown.get_string("code", ""), "bad_request");
    EXPECT_EQ(unknown.get_number("id", -1), 42.0);
  }
  {
    // Oversize frame: a clean protocol error, then the front hangs up.
    LineChannel channel(Socket::connect_to("127.0.0.1", forwarder.port()));
    ASSERT_TRUE(channel.read_line(line));  // greeting
    ASSERT_TRUE(channel.write_line(std::string(64 * 1024, 'x')));
    ASSERT_TRUE(channel.read_line(line));
    EXPECT_EQ(Json::parse(line).get_string("code", ""), "oversize_frame");
    EXPECT_FALSE(channel.read_line(line));
  }
  {
    // A silent session is evicted with an explicit error.
    LineChannel channel(Socket::connect_to("127.0.0.1", forwarder.port()));
    ASSERT_TRUE(channel.read_line(line));  // greeting
    ASSERT_TRUE(channel.read_line(line));
    EXPECT_EQ(Json::parse(line).get_string("code", ""), "idle_timeout");
    EXPECT_FALSE(channel.read_line(line));
  }

  // The front itself is unharmed.
  Client client(forwarder.port());
  EXPECT_TRUE(client.stats().get_bool("ok", false));
  forwarder.stop();
  backend.stop();
}

}  // namespace
}  // namespace ehw::svc
