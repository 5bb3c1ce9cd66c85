// Tests for the mission service: protocol payload round trips, the
// versioned handshake, request validation, admission control
// (queue_full backpressure), drain semantics, progress streaming — and
// above all that results delivered through the socket are BIT-IDENTICAL
// to standalone runs of the same spec (the scheduler's determinism
// guarantee extended across the wire). Admission is checked on every
// path a mission takes in: `submit` and a one-spec `submit_batch`,
// straight to the daemon and through a one-backend front. Also that a
// finished job holds no connection, and the channel liveness check that
// decides whether a pooled connection may carry another exchange.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ehw/common/fault.hpp"
#include "ehw/common/persist.hpp"
#include "ehw/common/version.hpp"
#include "ehw/sched/missions.hpp"
#include "ehw/svc/client.hpp"
#include "ehw/svc/forwarder.hpp"
#include "ehw/svc/server.hpp"
#include "ehw/svc/socket.hpp"

namespace ehw::svc {
namespace {

sched::MissionSpec quick_spec(sched::MissionKind kind, std::string name,
                              std::size_t lanes, Generation generations,
                              std::uint64_t seed) {
  sched::MissionSpec spec;
  spec.kind = kind;
  spec.name = std::move(name);
  spec.lanes = lanes;
  spec.generations = generations;
  spec.size = 16;
  spec.seed = seed;
  return spec;
}

/// The wire answer a standalone run of `spec` would produce.
struct Reference {
  Fitness fitness = 0;
  std::string genotype_hash;
  std::string sim_ns;
};

Reference standalone_reference(const sched::MissionSpec& spec) {
  const sched::JobOutcome alone = sched::run_spec_standalone(spec);
  Reference ref;
  ref.sim_ns = std::to_string(alone.stats.mission_time);
  if (spec.kind == sched::MissionKind::kCascade) {
    ref.fitness = alone.cascade.chain_fitness;
    std::uint64_t chain_hash = 0;
    for (const platform::CascadeStageOutcome& stage : alone.cascade.stages) {
      chain_hash = hash_mix(chain_hash, stage.best.hash());
    }
    ref.genotype_hash = hash_hex(chain_hash);
  } else {
    ref.fitness = alone.intrinsic.es.best_fitness;
    ref.genotype_hash = hash_hex(alone.intrinsic.es.best.hash());
  }
  return ref;
}

void expect_result_matches(const Json& result, const Reference& ref) {
  EXPECT_EQ(result.get_string("status", "?"), "done");
  EXPECT_EQ(static_cast<Fitness>(result.get_number("best_fitness", 0)),
            ref.fitness);
  EXPECT_EQ(result.get_string("genotype_hash", "?"), ref.genotype_hash);
  EXPECT_EQ(result.get_string("sim_ns", "?"), ref.sim_ns);
}

/// Polls `pred` for up to ~2 s (loopback delivery is not instantaneous).
bool eventually(const std::function<bool()>& pred) {
  for (int waited = 0; waited < 2000 && !pred(); waited += 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

/// One daemon, reached directly or through a one-backend front.
struct Deployment {
  Deployment(const ServerConfig& config, bool front) : server(config) {
    if (!front) return;
    ForwarderConfig forwarder_config;
    BackendConfig backend;
    backend.port = server.port();
    forwarder_config.backends = {backend};
    forwarder_config.poll_ms = 50;
    forwarder = std::make_unique<Forwarder>(std::move(forwarder_config));
  }
  ~Deployment() {
    if (forwarder != nullptr) forwarder->stop();
    server.stop();
  }
  [[nodiscard]] std::uint16_t port() const {
    return forwarder != nullptr ? forwarder->port() : server.port();
  }

  Server server;
  std::unique_ptr<Forwarder> forwarder;
};

/// A way a mission gets admitted: `submit` or a one-spec `submit_batch`,
/// straight to the daemon or through a front. Each must answer alike.
struct AdmissionPath {
  const char* name;
  bool front;
  bool batch;
};
constexpr AdmissionPath kAdmissionPaths[] = {
    {"direct submit", false, false},
    {"direct submit_batch", false, true},
    {"front submit", true, false},
    {"front submit_batch", true, true}};

/// Admits one spec the way `batch` says, the reply read as a submit's.
Client::Submitted admit(Client& client, const sched::MissionSpec& spec,
                        bool batch) {
  if (!batch) return client.submit(spec);
  const Client::BatchSubmitted reply = client.submit_batch({spec});
  Client::Submitted submitted;
  submitted.ok = reply.ok;
  if (reply.ok) submitted.job = reply.jobs[0];
  submitted.error = reply.error;
  submitted.code = reply.code;
  submitted.retry_after_ms = reply.retry_after_ms;
  return submitted;
}

// --- protocol payloads ------------------------------------------------------

TEST(SvcProtocol, SpecJsonRoundTrip) {
  sched::MissionSpec spec;
  spec.kind = sched::MissionKind::kCascade;
  spec.name = "rt";
  spec.lanes = 3;
  spec.priority = -2;
  spec.generations = 123;
  spec.size = 48;
  spec.noise = 0.25;
  spec.mutation_rate = 5;
  spec.lambda = 7;
  // Above 2^53: a JSON double would round these; they must survive the
  // wire bit-exactly (they travel as decimal strings).
  spec.seed = (1ULL << 53) + 3;
  spec.scene_seed = 0xFFFFFFFFFFFFFFFFULL;
  spec.two_level = true;
  spec.merged_fitness = true;
  spec.interleaved = true;

  // Emit -> dump -> parse -> rebuild must reproduce every field.
  const std::string wire = spec_to_json(spec).dump();
  sched::MissionSpec parsed;
  ASSERT_EQ(spec_from_json(Json::parse(wire), parsed), "");
  EXPECT_EQ(parsed.kind, spec.kind);
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.lanes, spec.lanes);
  EXPECT_EQ(parsed.priority, spec.priority);
  EXPECT_EQ(parsed.generations, spec.generations);
  EXPECT_EQ(parsed.size, spec.size);
  EXPECT_DOUBLE_EQ(parsed.noise, spec.noise);
  EXPECT_EQ(parsed.mutation_rate, spec.mutation_rate);
  EXPECT_EQ(parsed.lambda, spec.lambda);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.scene_seed, spec.scene_seed);
  EXPECT_EQ(parsed.two_level, spec.two_level);
  EXPECT_EQ(parsed.merged_fitness, spec.merged_fitness);
  EXPECT_EQ(parsed.interleaved, spec.interleaved);
}

TEST(SvcProtocol, SpecFromJsonRejectsBadPayloads) {
  sched::MissionSpec spec;
  // Same vocabulary and validation as the manifest parser.
  EXPECT_NE(spec_from_json(Json::parse(R"({"name":"x"})"), spec), "");
  EXPECT_NE(spec_from_json(
                Json::parse(R"({"kind":"transmogrify","name":"x"})"), spec),
            "");
  EXPECT_NE(spec_from_json(
                Json::parse(R"({"kind":"denoise","name":"x","lanes":0})"),
                spec),
            "");
  EXPECT_NE(spec_from_json(
                Json::parse(
                    R"({"kind":"denoise","name":"x","frobnicate":1})"),
                spec),
            "");
  EXPECT_NE(spec_from_json(
                Json::parse(R"({"kind":"denoise","name":"x","noise":1.5})"),
                spec),
            "");
  EXPECT_NE(spec_from_json(Json::parse(R"({"kind":"denoise"})"), spec), "");
  EXPECT_NE(spec_from_json(Json::parse(R"([1,2,3])"), spec), "");
}

// --- handshake and request validation ---------------------------------------

TEST(SvcServer, HandshakeGreetsAndEnforcesProtocolVersion) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  Server server(config);

  // Greeting frame announces service, protocol and build version.
  LineChannel channel(Socket::connect_to("127.0.0.1", server.port()));
  std::string line;
  ASSERT_TRUE(channel.read_line(line));
  const Json greeting = Json::parse(line);
  EXPECT_EQ(greeting.get_string("event", ""), "hello");
  EXPECT_EQ(greeting.get_string("service", ""), kServiceName);
  EXPECT_EQ(greeting.get_number("protocol", -1), kProtocolVersion);
  EXPECT_EQ(greeting.get_string("version", ""), kVersion);

  // Ops before the hello are refused.
  ASSERT_TRUE(channel.write_line(R"({"op":"list"})"));
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_FALSE(Json::parse(line).get_bool("ok", true));

  // A protocol mismatch is rejected and the connection closed.
  ASSERT_TRUE(channel.write_line(R"({"op":"hello","protocol":99})"));
  ASSERT_TRUE(channel.read_line(line));
  const Json rejected = Json::parse(line);
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("code", ""), "unsupported_protocol");
  EXPECT_FALSE(channel.read_line(line));  // server hung up

  // The Client class performs the handshake; a fresh one must work.
  Client client(server.port());
  EXPECT_EQ(client.server_version(), kVersion);
  server.stop();
}

TEST(SvcServer, MalformedAndUnknownRequestsGetErrorsWithEchoedId) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  Server server(config);
  LineChannel channel(Socket::connect_to("127.0.0.1", server.port()));
  std::string line;
  ASSERT_TRUE(channel.read_line(line));  // greeting
  ASSERT_TRUE(channel.write_line(R"({"op":"hello","protocol":1})"));
  ASSERT_TRUE(channel.read_line(line));
  ASSERT_TRUE(Json::parse(line).get_bool("ok", false));

  // Malformed JSON frame: an error response, connection stays usable.
  ASSERT_TRUE(channel.write_line("this is not json"));
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(Json::parse(line).get_string("code", ""), "bad_request");

  // Unknown op, with the request id echoed back.
  ASSERT_TRUE(channel.write_line(R"({"op":"transmogrify","id":42})"));
  ASSERT_TRUE(channel.read_line(line));
  const Json response = Json::parse(line);
  EXPECT_EQ(response.get_string("code", ""), "bad_request");
  EXPECT_EQ(response.get_number("id", -1), 42.0);

  // Submit with a bad spec is rejected, not crashed on.
  ASSERT_TRUE(channel.write_line(
      R"({"op":"submit","spec":{"kind":"denoise","name":"x","lanes":0}})"));
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_EQ(Json::parse(line).get_string("code", ""), "bad_spec");

  server.stop();

  // Lane demand beyond the pool is a spec error too, however it comes in.
  for (const AdmissionPath& path : kAdmissionPaths) {
    SCOPED_TRACE(path.name);
    Deployment deployment(config, path.front);
    Client client(deployment.port());
    const Client::Submitted wide = admit(
        client, quick_spec(sched::MissionKind::kDenoise, "x", 7, 5, 1),
        path.batch);
    EXPECT_FALSE(wide.ok);
    EXPECT_EQ(wide.code, "bad_spec");
  }
}

// --- end-to-end determinism -------------------------------------------------

TEST(SvcServer, SubmitWatchResultBitIdenticalToStandalone) {
  ServerConfig config;
  config.pool.num_arrays = 2;
  Server server(config);
  Client client(server.port());
  Client control(server.port());

  // Gate: an effectively endless 2-lane blocker keeps the real job
  // queued until the watch subscription is in place, so the test
  // observes the COMPLETE progress stream deterministically.
  const Client::Submitted blocker = control.submit(quick_spec(
      sched::MissionKind::kDenoise, "blocker", 2, 100000000, 1));
  ASSERT_TRUE(blocker.ok) << blocker.error;

  const sched::MissionSpec spec =
      quick_spec(sched::MissionKind::kDenoise, "dn", 2, 15, 5);
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  EXPECT_EQ(client.status(submitted.job).get_string("status", "?"),
            "queued");

  // Watch streams progress events and ends with done. The server
  // subscribes before acking, so waiting for on_subscribed before
  // releasing the gate guarantees the COMPLETE stream is observed.
  std::uint64_t events = 0;
  std::uint64_t last_waves = 0;
  std::string status;
  std::atomic<bool> subscribed{false};
  std::thread watcher([&] {
    status = client.watch(
        submitted.job,
        [&](std::uint64_t waves) {
          ++events;
          EXPECT_GT(waves, last_waves);
          last_waves = waves;
        },
        /*every=*/1, /*on_subscribed=*/[&] { subscribed.store(true); });
  });
  while (!subscribed.load()) std::this_thread::yield();
  ASSERT_TRUE(control.cancel(blocker.job));
  watcher.join();
  EXPECT_EQ(status, "done");
  EXPECT_EQ(events, 15u);  // one per generation, none missed

  const Json result = client.result(submitted.job);
  ASSERT_TRUE(result.get_bool("ok", false));
  // One wave per generation for the evolution kinds.
  EXPECT_EQ(result.get_number("waves", 0),
            result.get_number("generations", -1));
  expect_result_matches(result, standalone_reference(spec));

  // status reports the finished job consistently.
  const Json status_response = client.status(submitted.job);
  EXPECT_EQ(status_response.get_string("status", "?"), "done");
  EXPECT_EQ(status_response.get_string("sim_ns", "?"),
            result.get_string("sim_ns", "!"));
  server.stop();
}

TEST(SvcServer, ResultCarriesThePhaseProfile) {
  ServerConfig config;
  config.pool.num_arrays = 2;
  Server server(config);
  Client client(server.port());
  const Client::Submitted submitted = client.submit(
      quick_spec(sched::MissionKind::kDenoise, "profiled", 2, 12, 3));
  ASSERT_TRUE(submitted.ok) << submitted.error;
  const Json result = client.result(submitted.job);
  ASSERT_TRUE(result.get_bool("ok", false));
  ASSERT_NE(result.get("profile"), nullptr);
  const Json* phases = result.get("profile")->get("phases");
  ASSERT_NE(phases, nullptr);
  std::map<std::string, double> counts;
  for (const Json& phase : phases->as_array()) {
    counts[phase.get_string("phase", "?")] += phase.get_number("count", 0);
    std::uint64_t total_ns = 0;
    EXPECT_TRUE(json_read_u64(phase.get("total_ns"), total_ns));
  }
  // Every cache miss compiles once; every wave is one span.
  EXPECT_GT(result.get_number("cache_misses", 0), 0.0);
  EXPECT_EQ(counts["compile"], result.get_number("cache_misses", -1));
  EXPECT_EQ(counts["wave"], result.get_number("waves", -1));
  EXPECT_EQ(counts["wave"], 12.0);
  server.stop();
}

TEST(SvcServer, CascadeResultBitIdenticalToStandalone) {
  ServerConfig config;
  config.pool.num_arrays = 2;
  Server server(config);
  Client client(server.port());

  sched::MissionSpec spec =
      quick_spec(sched::MissionKind::kCascade, "ca", 2, 6, 11);
  spec.noise = 0.2;
  spec.interleaved = true;
  const Client::Submitted submitted = client.submit(spec);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  const Json result = client.result(submitted.job);
  ASSERT_TRUE(result.get_bool("ok", false));
  expect_result_matches(result, standalone_reference(spec));
  // Per-stage payload is present and sized by the lane count.
  const Json* stages = result.get("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_EQ(stages->as_array().size(), spec.lanes);
  server.stop();
}

TEST(SvcServer, ConcurrentClientsAllBitIdenticalToStandalone) {
  ServerConfig config;
  config.pool.num_arrays = 8;
  Server server(config);

  constexpr std::size_t kClients = 4;
  std::vector<sched::MissionSpec> specs;
  specs.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    // snprintf instead of string concatenation: gcc 12 -O3 trips a
    // -Wrestrict false positive on operator+(const char*, string&&).
    char name[8];
    std::snprintf(name, sizeof name, "c%zu", i);
    specs.push_back(
        quick_spec(sched::MissionKind::kDenoise, name, 2, 12, 100 + i));
  }

  std::vector<Json> results(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      try {
        Client client(server.port());
        const Client::Submitted submitted = client.submit(specs[i]);
        if (!submitted.ok) throw std::runtime_error(submitted.error);
        results[i] = client.result(submitted.job);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  for (std::size_t i = 0; i < kClients; ++i) {
    expect_result_matches(results[i], standalone_reference(specs[i]));
  }

  // Service accounting saw all of them.
  Client client(server.port());
  const Json stats = client.stats();
  const Json* service = stats.get("service");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->get_number("submitted", 0), kClients);
  const Json* pool = stats.get("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->get_number("done", 0), kClients);
  server.stop();
}

// --- admission control, cancel, drain ---------------------------------------

TEST(SvcServer, SubmitBatchRunsEverySpecBitIdenticalToStandalone) {
  ServerConfig config;
  config.pool.num_arrays = 4;
  Server server(config);
  Client client(server.port());

  std::vector<sched::MissionSpec> specs;
  specs.push_back(quick_spec(sched::MissionKind::kDenoise, "b0", 1, 12, 5));
  specs.push_back(quick_spec(sched::MissionKind::kEdge, "b1", 2, 10, 6));
  specs.push_back(quick_spec(sched::MissionKind::kMorphology, "b2", 1, 8, 7));
  const Client::BatchSubmitted submitted = client.submit_batch(specs);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  ASSERT_EQ(submitted.jobs.size(), specs.size());

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Json result = client.result(submitted.jobs[i]);
    ASSERT_TRUE(result.get_bool("ok", false));
    EXPECT_EQ(result.get_string("name", "?"), specs[i].name);
    expect_result_matches(result, standalone_reference(specs[i]));
  }
  server.stop();
}

TEST(SvcServer, SubmitBatchAppliesDefaultsAndNamesBadSpecs) {
  ServerConfig config;
  config.pool.num_arrays = 2;
  Server server(config);
  LineChannel channel(Socket::connect_to("127.0.0.1", server.port()));
  std::string line;
  ASSERT_TRUE(channel.read_line(line));  // greeting
  ASSERT_TRUE(channel.write_line(R"({"op":"hello","protocol":1})"));
  ASSERT_TRUE(channel.read_line(line));

  // "defaults" is the shared frame; specs override per mission. The
  // result must equal a standalone run of the merged spec.
  ASSERT_TRUE(channel.write_line(
      R"({"op":"submit_batch",)"
      R"("defaults":{"kind":"denoise","size":16,"generations":10,"seed":"5"},)"
      R"("specs":[{"name":"d0"},{"name":"d1","seed":"6"}]})"));
  ASSERT_TRUE(channel.read_line(line));
  const Json accepted = Json::parse(line);
  ASSERT_TRUE(accepted.get_bool("ok", false)) << line;
  ASSERT_EQ(accepted.get("jobs")->as_array().size(), 2u);

  Client results(server.port());
  const auto merged = [](const char* name, std::uint64_t seed) {
    sched::MissionSpec spec =
        quick_spec(sched::MissionKind::kDenoise, name, 1, 10, seed);
    return spec;
  };
  const Json r0 = results.result(static_cast<std::uint64_t>(
      accepted.get("jobs")->as_array()[0].get_number("job", 0)));
  expect_result_matches(r0, standalone_reference(merged("d0", 5)));
  const Json r1 = results.result(static_cast<std::uint64_t>(
      accepted.get("jobs")->as_array()[1].get_number("job", 0)));
  expect_result_matches(r1, standalone_reference(merged("d1", 6)));

  // A bad spec rejects the WHOLE batch, naming the offending index...
  ASSERT_TRUE(channel.write_line(
      R"({"op":"submit_batch","specs":[)"
      R"({"kind":"denoise","name":"ok"},)"
      R"({"kind":"denoise","name":"bad","lanes":0}]})"));
  ASSERT_TRUE(channel.read_line(line));
  Json rejected = Json::parse(line);
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("code", ""), "bad_spec");
  EXPECT_NE(rejected.get_string("error", "").find("spec 1"),
            std::string::npos);

  // ...as do duplicate names within the batch and an empty spec list.
  ASSERT_TRUE(channel.write_line(
      R"({"op":"submit_batch","specs":[)"
      R"({"kind":"denoise","name":"dup"},{"kind":"edge","name":"dup"}]})"));
  ASSERT_TRUE(channel.read_line(line));
  rejected = Json::parse(line);
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_NE(rejected.get_string("error", "").find("duplicate"),
            std::string::npos);
  ASSERT_TRUE(channel.write_line(R"({"op":"submit_batch","specs":[]})"));
  ASSERT_TRUE(channel.read_line(line));
  EXPECT_FALSE(Json::parse(line).get_bool("ok", true));

  // Nothing from the rejected batches was admitted.
  const Json list = results.list();
  EXPECT_EQ(list.get("jobs")->as_array().size(), 2u);
  server.stop();
}

TEST(SvcServer, SubmitBatchAdmissionIsAtomicAgainstTheInflightCap) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  config.max_inflight = 2;
  Server server(config);
  Client client(server.port());

  // A 3-spec batch cannot fit the cap of 2: rejected whole, nothing runs.
  std::vector<sched::MissionSpec> three;
  for (int j = 0; j < 3; ++j) {
    // snprintf instead of "t" + to_string: gcc 12 -O3 trips a -Wrestrict
    // false positive on operator+(const char*, string&&).
    char name[8];
    std::snprintf(name, sizeof name, "t%d", j);
    three.push_back(quick_spec(sched::MissionKind::kDenoise, name, 1, 5,
                               static_cast<std::uint64_t>(40 + j)));
  }
  const Client::BatchSubmitted rejected = client.submit_batch(three);
  ASSERT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, "queue_full");

  // The cap is still fully available: a 2-spec batch is admitted.
  three.pop_back();
  const Client::BatchSubmitted accepted = client.submit_batch(three);
  ASSERT_TRUE(accepted.ok) << accepted.error;
  ASSERT_EQ(accepted.jobs.size(), 2u);
  for (const std::uint64_t job : accepted.jobs) {
    EXPECT_EQ(client.result(job).get_string("status", "?"), "done");
  }
  server.stop();
}

TEST(SvcServer, AdmissionControlRejectsQueueFullAndCancelUnblocks) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  config.max_inflight = 1;
  for (const AdmissionPath& path : kAdmissionPaths) {
    SCOPED_TRACE(path.name);
    Deployment deployment(config, path.front);
    Client client(deployment.port());

    // An effectively endless mission occupies the only inflight slot.
    const sched::MissionSpec long_spec =
        quick_spec(sched::MissionKind::kDenoise, "long", 1, 100000000, 3);
    const Client::Submitted first = admit(client, long_spec, path.batch);
    ASSERT_TRUE(first.ok) << first.error;

    // Backpressure: the second submit is rejected, not queued, and says
    // when to come back.
    const Client::Submitted second = admit(
        client, quick_spec(sched::MissionKind::kDenoise, "extra", 1, 5, 4),
        path.batch);
    ASSERT_FALSE(second.ok);
    EXPECT_EQ(second.code, "queue_full");
    EXPECT_GT(second.retry_after_ms, 0u);

    // Cancel the hog from a second connection; watch sees it finish.
    Client controller(deployment.port());
    ASSERT_TRUE(controller.cancel(first.job));
    const std::string status = client.watch(first.job);
    EXPECT_EQ(status, "cancelled");

    // The slot freed up: submitting works again.
    const Client::Submitted third = admit(
        client, quick_spec(sched::MissionKind::kDenoise, "after", 1, 5, 4),
        path.batch);
    ASSERT_TRUE(third.ok) << third.error;
    EXPECT_EQ(client.watch(third.job), "done");
  }
}

TEST(SvcServer, DrainFinishesInFlightJobsAndRefusesNewOnes) {
  ServerConfig config;
  config.pool.num_arrays = 2;
  for (const AdmissionPath& path : kAdmissionPaths) {
    SCOPED_TRACE(path.name);
    Deployment deployment(config, path.front);
    Client submitter(deployment.port());

    const sched::MissionSpec spec =
        quick_spec(sched::MissionKind::kDenoise, "inflight", 2, 20, 7);
    const Client::Submitted submitted = admit(submitter, spec, path.batch);
    ASSERT_TRUE(submitted.ok) << submitted.error;

    // Drain from a second connection, waiting for the in-flight job (a
    // front fans the drain out to its backend).
    Client controller(deployment.port());
    const Json drained = controller.drain(/*wait=*/true);
    ASSERT_TRUE(drained.get_bool("ok", false));
    if (!path.front) {
      EXPECT_EQ(drained.get_number("inflight", -1), 0.0);
    }
    EXPECT_TRUE(deployment.server.draining());

    // New submissions are refused with an explicit code...
    const Client::Submitted rejected = admit(
        submitter, quick_spec(sched::MissionKind::kDenoise, "late", 1, 5, 8),
        path.batch);
    ASSERT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.code, "draining");

    // ...while the in-flight job completed normally, bit-identical.
    const Json result = submitter.result(submitted.job);
    expect_result_matches(result, standalone_reference(spec));

    deployment.server.wait_drained();  // drained and empty
  }
}

TEST(SvcServer, RetentionEvictsOldestFinishedJobsOnly) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  config.max_job_records = 2;
  Server server(config);
  Client client(server.port());
  std::vector<std::uint64_t> jobs;
  for (int i = 0; i < 3; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "r%d", i);
    const Client::Submitted submitted = client.submit(quick_spec(
        sched::MissionKind::kDenoise, name, 1, 5,
        static_cast<std::uint64_t>(40 + i)));
    ASSERT_TRUE(submitted.ok) << submitted.error;
    jobs.push_back(submitted.job);
    EXPECT_EQ(client.watch(submitted.job), "done");
  }
  // The third submit pushed the registry over the cap: the OLDEST
  // finished job was evicted, the newer ones still resolve.
  const Json list = client.list();
  ASSERT_EQ(list.get("jobs")->as_array().size(), 2u);
  EXPECT_EQ(list.get("jobs")->as_array()[0].get_string("name", ""), "r1");
  EXPECT_EQ(client.status(jobs[0]).get_string("code", ""), "unknown_job");
  EXPECT_EQ(client.status(jobs[2]).get_string("status", ""), "done");
  server.stop();
}

TEST(SvcServer, RetentionNeverEvictsLiveJobs) {
  ServerConfig config;
  config.pool.num_arrays = 2;
  config.max_job_records = 2;
  Server server(config);
  Client client(server.port());
  // The oldest record stays live while the others finish (seconds long,
  // not endless, so a server that lost it still stops).
  const Client::Submitted keeper = client.submit(
      quick_spec(sched::MissionKind::kDenoise, "keeper", 1, 20000, 7));
  ASSERT_TRUE(keeper.ok) << keeper.error;
  for (int i = 0; i < 3; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "r%d", i);
    const Client::Submitted submitted = client.submit(quick_spec(
        sched::MissionKind::kDenoise, name, 1, 5,
        static_cast<std::uint64_t>(40 + i)));
    ASSERT_TRUE(submitted.ok) << submitted.error;
    EXPECT_EQ(client.watch(submitted.job), "done");
  }
  EXPECT_EQ(client.status(keeper.job).get_string("status", ""), "running");
  const Json list = client.list();
  ASSERT_EQ(list.get("jobs")->as_array().size(), 2u);
  EXPECT_EQ(list.get("jobs")->as_array()[1].get_string("name", ""), "r2");
  ASSERT_TRUE(client.cancel(keeper.job));
  EXPECT_EQ(client.watch(keeper.job), "cancelled");
  server.stop();
}

/// Open descriptors of this process, the in-process daemon's included.
std::size_t open_fds() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    static_cast<void>(entry);
    ++count;
  }
  return count;
}

TEST(SvcServer, FinishedJobsKeepNoWatcherConnection) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd to count descriptors in";
  }
  ServerConfig config;
  config.pool.num_arrays = 2;
  Server server(config);
  const std::size_t before = open_fds();
  constexpr int kMissions = 24;
  for (int i = 0; i < kMissions; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "w%d", i);
    Client client(server.port());
    const Client::Submitted submitted = client.submit(quick_spec(
        sched::MissionKind::kDenoise, name, 1, 3,
        static_cast<std::uint64_t>(60 + i)));
    ASSERT_TRUE(submitted.ok) << submitted.error;
    EXPECT_EQ(client.watch(submitted.job), "done");
  }  // each watching client disconnects here
  // Ended sessions are reaped at the next accept: wait until every one
  // noticed its disconnect, then connect once more.
  ASSERT_TRUE(
      eventually([&] { return server.service_stats().sessions_open == 0; }));
  EXPECT_TRUE(Client(server.port()).list().get_bool("ok", false));
  // What is left is the last session (reaped by a later accept) and
  // slack; a finished job that kept its watcher would hold one each.
  EXPECT_LE(open_fds(), before + 4);
  server.stop();
}

TEST(SvcServer, ListShowsJobsAcrossConnections) {
  ServerConfig config;
  config.pool.num_arrays = 2;
  Server server(config);
  Client client(server.port());
  const Client::Submitted a = client.submit(
      quick_spec(sched::MissionKind::kEdge, "list-a", 1, 8, 21));
  const Client::Submitted b = client.submit(
      quick_spec(sched::MissionKind::kMorphology, "list-b", 1, 8, 22));
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(client.watch(a.job), "done");
  EXPECT_EQ(client.watch(b.job), "done");

  Client other(server.port());  // listings are service-wide
  const Json list = other.list();
  const Json* jobs = list.get("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->as_array().size(), 2u);
  EXPECT_EQ(jobs->as_array()[0].get_string("name", ""), "list-a");
  EXPECT_EQ(jobs->as_array()[0].get_string("status", ""), "done");
  EXPECT_EQ(jobs->as_array()[1].get_string("kind", ""), "morphology");

  // Jobs are addressable by name as well as id.
  Json by_name = Json::object();
  by_name.set("op", "status");
  by_name.set("job", "list-b");
  EXPECT_EQ(other.request(by_name).get_number("job", 0),
            static_cast<double>(b.job));
  server.stop();
}

// --- membership identity ----------------------------------------------------

TEST(SvcServer, GreetingCarriesInstanceIdentityAndEphemeralEpochIsOne) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  Server server(config);
  EXPECT_FALSE(server.instance_id().empty());
  EXPECT_EQ(server.epoch(), 1u);

  Client client(server.port());
  EXPECT_EQ(client.server_instance_id(), server.instance_id());
  EXPECT_EQ(client.server_epoch(), 1u);

  // The identity also rides the stats and health ops (additive fields).
  const Json stats = client.stats();
  const Json* service = stats.get("service");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->get_string("instance_id", ""), server.instance_id());
  EXPECT_EQ(service->get_number("epoch", 0), 1.0);
  Json health_request = Json::object();
  health_request.set("op", "health");
  const Json health = client.request(health_request);
  EXPECT_EQ(health.get_string("instance_id", ""), server.instance_id());
  EXPECT_EQ(health.get_number("epoch", 0), 1.0);
  server.stop();
}

TEST(SvcServer, JournaledIdentityPersistsAndEpochBumpsAcrossRestarts) {
  const std::string dir = testing::TempDir() + "ehw_svc_identity";
  static_cast<void>(remove_file(dir + "/instance.json"));
  static_cast<void>(remove_file(dir + "/journal.jsonl"));
  static_cast<void>(remove_file(dir + "/warm.json"));
  ServerConfig config;
  config.pool.num_arrays = 1;
  config.journal_dir = dir;

  std::string first_id;
  {
    Server first(config);
    first_id = first.instance_id();
    EXPECT_FALSE(first_id.empty());
    EXPECT_EQ(first.epoch(), 1u);
    first.stop();
  }
  {
    // Same journal, new process incarnation: same instance, epoch + 1 —
    // the signal a forwarder uses to tell "restarted, volatile state
    // gone" from "stalled, state intact".
    Server second(config);
    EXPECT_EQ(second.instance_id(), first_id);
    EXPECT_EQ(second.epoch(), 2u);
    second.stop();
  }
  {
    // A corrupt identity file never wedges startup: fresh identity.
    ASSERT_TRUE(atomic_write_file(dir + "/instance.json", "{broken").empty());
    Server third(config);
    EXPECT_FALSE(third.instance_id().empty());
    EXPECT_EQ(third.epoch(), 1u);
    third.stop();
  }
}

// --- protocol armor ---------------------------------------------------------

TEST(SvcServer, OversizeFrameGetsCleanErrorAndCloseWithBoundedMemory) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  config.max_line = 4096;
  Server server(config);

  LineChannel channel(Socket::connect_to("127.0.0.1", server.port()));
  std::string line;
  ASSERT_TRUE(channel.read_line(line));  // greeting
  // A "frame" that never ends, far past the bound. The server must
  // answer with a clean protocol error and close — never buffer it all.
  const std::string flood(64 * 1024, 'x');
  ASSERT_TRUE(channel.write_line(flood));
  ASSERT_TRUE(channel.read_line(line));
  const Json error = Json::parse(line);
  EXPECT_FALSE(error.get_bool("ok", true));
  EXPECT_EQ(error.get_string("code", ""), "oversize_frame");
  EXPECT_FALSE(channel.read_line(line));  // server hung up

  // The daemon itself is unharmed: a fresh handshake works.
  Client client(server.port());
  EXPECT_TRUE(client.stats().get_bool("ok", false));
  server.stop();
}

TEST(SvcServer, IdleSessionsTimeOutWithExplicitError) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  config.idle_timeout_ms = 150;
  Server server(config);

  LineChannel channel(Socket::connect_to("127.0.0.1", server.port()));
  std::string line;
  ASSERT_TRUE(channel.read_line(line));  // greeting
  // Say nothing. The server must evict this session on its own instead
  // of holding the fd forever.
  ASSERT_TRUE(channel.read_line(line));
  const Json error = Json::parse(line);
  EXPECT_FALSE(error.get_bool("ok", true));
  EXPECT_EQ(error.get_string("code", ""), "idle_timeout");
  EXPECT_FALSE(channel.read_line(line));  // closed

  // Active sessions are untouched by the bound.
  Client client(server.port());
  const Client::Submitted submitted = client.submit(
      quick_spec(sched::MissionKind::kDenoise, "alive", 1, 5, 3));
  ASSERT_TRUE(submitted.ok) << submitted.error;
  EXPECT_EQ(client.watch(submitted.job), "done");
  server.stop();
}

// --- load shedding hints ----------------------------------------------------

TEST(SvcServer, QueueFullRejectionsCarryRetryAfterHint) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  config.max_inflight = 1;
  for (const AdmissionPath& path : kAdmissionPaths) {
    SCOPED_TRACE(path.name);
    Deployment deployment(config, path.front);
    Client client(deployment.port());

    const Client::Submitted hog = admit(
        client,
        quick_spec(sched::MissionKind::kDenoise, "hog", 1, 100000000, 3),
        path.batch);
    ASSERT_TRUE(hog.ok) << hog.error;

    // A front relays the daemon's refusal, hint included.
    const Client::Submitted rejected = admit(
        client, quick_spec(sched::MissionKind::kDenoise, "extra", 1, 5, 4),
        path.batch);
    ASSERT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.code, "queue_full");
    // The hint is clamped to a sane band so well-behaved clients neither
    // hammer (>= 25 ms) nor stall for ages (<= 60 s).
    EXPECT_GE(rejected.retry_after_ms, 25u);
    EXPECT_LE(rejected.retry_after_ms, 60'000u);

    Client controller(deployment.port());
    ASSERT_TRUE(controller.cancel(hog.job));
    EXPECT_EQ(client.watch(hog.job), "cancelled");
  }
}

TEST(SvcClient, WithRetryWaitsOutQueueFullHintAndLands) {
  ServerConfig config;
  config.pool.num_arrays = 1;
  config.max_inflight = 1;
  for (const bool front : {false, true}) {
    SCOPED_TRACE(front ? "through a front" : "direct");
    Deployment deployment(config, front);
    const std::uint16_t port = deployment.port();
    Client client(port);

    const Client::Submitted hog = client.submit(
        quick_spec(sched::MissionKind::kDenoise, "hog2", 1, 100000000, 3));
    ASSERT_TRUE(hog.ok) << hog.error;

    // Free the slot shortly after the first rejection lands.
    std::thread unblocker([port, job = hog.job] {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
      Client controller(port);
      ASSERT_TRUE(controller.cancel(job));
    });

    const sched::MissionSpec spec =
        quick_spec(sched::MissionKind::kDenoise, "patient", 1, 5, 4);
    RetryPolicy policy;
    policy.retries = 20;
    policy.backoff_ms = 50;
    const Json response = with_retry(
        port, "127.0.0.1", policy, [&spec](Client& c) -> Json {
          Json request = Json::object();
          request.set("op", "submit");
          request.set("spec", spec_to_json(spec));
          return c.request(request);
        });
    unblocker.join();
    ASSERT_TRUE(response.get_bool("ok", false))
        << response.get_string("error", "");
    EXPECT_EQ(client.watch(static_cast<std::uint64_t>(
                  response.get_number("job", 0))),
              "done");
  }
}

// --- connection reuse: the liveness check -----------------------------------

/// Both ends of one loopback TCP connection.
struct ChannelPair {
  ChannelPair()
      : listener("127.0.0.1", 0),
        near(Socket::connect_to("127.0.0.1", listener.port())) {
    std::optional<Socket> accepted = listener.accept_one(/*timeout_ms=*/5000);
    if (!accepted.has_value()) throw std::runtime_error("nothing accepted");
    far = std::make_unique<LineChannel>(std::move(*accepted));
  }
  Listener listener;
  LineChannel near;
  std::unique_ptr<LineChannel> far;
};

TEST(SvcChannel, IdleOpenChannelStaysReusable) {
  ChannelPair pair;
  EXPECT_TRUE(pair.near.reusable());
  EXPECT_TRUE(pair.far->reusable());
  // A completed exchange leaves both ends reusable.
  std::string line;
  ASSERT_TRUE(pair.near.write_line("ping"));
  ASSERT_TRUE(pair.far->read_line(line));
  ASSERT_TRUE(pair.far->write_line("pong"));
  ASSERT_TRUE(pair.near.read_line(line));
  EXPECT_EQ(line, "pong");
  EXPECT_TRUE(pair.near.reusable());
  EXPECT_TRUE(pair.far->reusable());
}

TEST(SvcChannel, PeerCloseEndsReuse) {
  ChannelPair pair;
  ASSERT_TRUE(pair.near.reusable());
  pair.far.reset();  // the server idled the session out, or died
  EXPECT_TRUE(eventually([&] { return !pair.near.reusable(); }));
}

TEST(SvcChannel, UnreadPendingBytesEndReuse) {
  ChannelPair pair;
  std::string line;
  // Bytes waiting in the socket: a stray frame nobody asked for.
  ASSERT_TRUE(pair.far->write_line("stray"));
  EXPECT_TRUE(eventually([&] { return !pair.near.reusable(); }));
  ASSERT_TRUE(pair.near.read_line(line));
  EXPECT_TRUE(pair.near.reusable());
  // Bytes already read off the socket but still buffered in the channel.
  ASSERT_TRUE(pair.far->write_line("first\nsecond"));
  ASSERT_TRUE(eventually([&] { return !pair.near.reusable(); }));
  ASSERT_TRUE(pair.near.read_line(line));
  EXPECT_EQ(line, "first");
  EXPECT_FALSE(pair.near.reusable());
  ASSERT_TRUE(pair.near.read_line(line));
  EXPECT_EQ(line, "second");
  EXPECT_TRUE(pair.near.reusable());
}

TEST(SvcChannel, FailedWriteEndsReuse) {
  ChannelPair pair;
  {
    const fault::ScopedPlan plan("sock_write_error=count:1");
    EXPECT_FALSE(pair.near.write_line("lost"));
  }
  // The socket itself is still open and quiet; the failed write alone
  // makes the channel unfit for another exchange.
  EXPECT_TRUE(pair.far->reusable());
  EXPECT_FALSE(pair.near.reusable());
}

}  // namespace
}  // namespace ehw::svc
