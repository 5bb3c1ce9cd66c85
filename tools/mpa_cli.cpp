// mpa — the command-line front end to the MPA-EHW library.
//
// Subcommands:
//   info      [--stages N]                       resource model + floorplan
//   evolve    --train in.pgm --ref ref.pgm       evolve a filter on the
//             [--arrays N] [--generations N]     platform and append it to
//             [--two-level] [--seed N]           a genotype library file
//             --lib filters.txt --name NAME
//   filter    --lib filters.txt --name NAME      apply a saved filter
//             --in x.pgm --out y.pgm
//   schematic --lib filters.txt --name NAME      ASCII circuit + liveness
//   campaign  --lib filters.txt --name NAME      systematic PE fault
//             --train in.pgm --ref ref.pgm       campaign + criticality map
//   batch     --manifest jobs.txt [--arrays N]   run a manifest of
//             [--cache N] [--sequential]         heterogeneous missions
//                                                concurrently on one
//                                                scheduler ArrayPool
//   serve     [--port N] [--arrays N] ...        run the mission service
//             [--journal DIR]                    daemon over one pool of N
//             [--checkpoint-every N] [--no-warm] arrays; --journal makes it
//                                                durable
//   forward   [--port N] [--poll-ms N] ...       run the federation front
//             host:port[:journal] ...            daemon over backend
//                                                daemons (same protocol)
//   submit    --port N <kind> <name> [k=v ...]   submit a mission to a
//                                                daemon and stream it
//   result    --port N --job ID|NAME             fetch (block for) one
//                                                job's final result
//   ps        --port N [--cluster]               list daemon jobs + stats
//   stats     --port N                           pool or per-backend
//                                                capacity rows
//   cancel    --port N --job ID|NAME             cancel a daemon job
//   drain     --port N [--wait]                  drain the daemon (finish
//                                                jobs, refuse new ones)
//   checkpoint <kind> <name> [k=v ...]           run a mission standalone,
//             --out ck.json [--every N]          checkpointing to a file
//             [--preempt G]                      (optionally stop early)
//   restore   --from ck.json [--lanes N]         resume a checkpointed
//                                                mission to completion
//                                                (optionally on a
//                                                different lane count)
//   health    --port N                           per-array health, fault
//                                                counters + migrations
//   top       --port N [--cluster]               live refreshing terminal
//             [--interval MS] [--count N]        dashboard over the stats/
//                                                list/health ops (q quits)
//   trace     [OUT.json] --port N                dump the daemon's span
//             [--arm|--disarm] [--clear]         rings as Chrome trace-
//                                                event JSON (load into
//                                                chrome://tracing or
//                                                ui.perfetto.dev)
//   demo      [--size N] [--noise D]             end-to-end synthetic demo
//   version                                      build version + protocol
//
// Every run is deterministic for a given --seed; batch results are
// bit-identical whether jobs are multiplexed or run --sequential, and
// service results are bit-identical to standalone runs of the same spec.
// A preempted + restored run lands on the bit-identical result of an
// uninterrupted one — `mpa checkpoint --preempt` then `mpa restore`
// prints the same result line as `mpa checkpoint` run to completion.
//
// Fault injection: `mpa serve --fault-plan SPEC` (or the EHW_FAULT_PLAN
// environment variable) arms the deterministic fault layer for chaos
// testing — see common/fault.hpp for the plan grammar. `mpa submit
// --retries N [--timeout-ms M]` turns the client into a reconnecting one
// with idempotent resubmit keyed by mission name.

#include <poll.h>
#include <termios.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "ehw/analysis/campaign.hpp"
#include "ehw/analysis/report.hpp"
#include "ehw/common/cli.hpp"
#include "ehw/common/fault.hpp"
#include "ehw/common/table.hpp"
#include "ehw/common/version.hpp"
#include "ehw/evo/serialize.hpp"
#include "ehw/img/metrics.hpp"
#include "ehw/img/noise.hpp"
#include "ehw/img/pgm_io.hpp"
#include "ehw/img/synthetic.hpp"
#include "ehw/obs/trace.hpp"
#include "ehw/pe/compiled.hpp"
#include "ehw/pe/liveness.hpp"
#include "ehw/platform/evolution_driver.hpp"
#include "ehw/resources/floorplan.hpp"
#include "ehw/resources/model.hpp"
#include "ehw/sched/array_pool.hpp"
#include "ehw/sched/checkpoint_store.hpp"
#include "ehw/sched/missions.hpp"
#include "ehw/svc/client.hpp"
#include "ehw/svc/forwarder.hpp"
#include "ehw/svc/metrics_http.hpp"
#include "ehw/svc/server.hpp"

namespace {

using namespace ehw;

constexpr const char* kInfoUsage = "mpa info [--stages N]";
constexpr const char* kEvolveUsage =
    "mpa evolve --train in.pgm --ref ref.pgm --lib filters.txt --name NAME "
    "[--arrays N] [--generations N] [--rate K] [--two-level] [--seed N]";
constexpr const char* kFilterUsage =
    "mpa filter --lib filters.txt --name NAME --in x.pgm --out y.pgm";
constexpr const char* kSchematicUsage =
    "mpa schematic --lib filters.txt --name NAME";
constexpr const char* kCampaignUsage =
    "mpa campaign --lib filters.txt --name NAME --train in.pgm --ref ref.pgm "
    "[--recover] [--generations N]";
constexpr const char* kBatchUsage =
    "mpa batch --manifest jobs.txt [--arrays N] [--cache N] [--max-jobs N] "
    "[--sequential]";
constexpr const char* kServeUsage =
    "mpa serve [--port N] [--address A] "
    "[--arrays N] [--cache N] [--max-jobs N] [--max-inflight N] "
    "[--journal DIR] [--checkpoint-every N] [--no-warm] [--fault-plan SPEC] "
    "[--metrics-port N] [--idle-timeout-ms N] [--max-line BYTES]";
constexpr const char* kForwardUsage =
    "mpa forward [--port N] [--address A] [--poll-ms N] [--down-after N] "
    "[--timeout-ms N] [--metrics-port N] [--idle-timeout-ms N] "
    "[--max-line BYTES] host:port[:journal] ...";
constexpr const char* kSubmitUsage =
    "mpa submit --port N [--address A] <kind> <name> [key=value ...] "
    "[--detach] [--quiet] [--retries N] [--timeout-ms N] | "
    "mpa submit --port N --manifest jobs.txt [--detach]";
constexpr const char* kResultUsage =
    "mpa result --port N [--address A] --job ID|NAME "
    "[--retries N] [--timeout-ms N]";
constexpr const char* kPsUsage =
    "mpa ps --port N [--address A] [--cluster]";
constexpr const char* kStatsUsage = "mpa stats --port N [--address A]";
constexpr const char* kCancelUsage =
    "mpa cancel --port N [--address A] --job ID|NAME";
constexpr const char* kDrainUsage =
    "mpa drain --port N [--address A] [--wait]";
constexpr const char* kCheckpointUsage =
    "mpa checkpoint <kind> <name> [key=value ...] --out ck.json "
    "[--every N] [--preempt G]";
constexpr const char* kRestoreUsage =
    "mpa restore --from ck.json [--lanes N]";
constexpr const char* kHealthUsage =
    "mpa health --port N [--address A] [--cluster]";
constexpr const char* kBackendUsage =
    "mpa backend <list|add|remove> --port N [--address A] "
    "[host:port[:journal]] [--backend INDEX]";
constexpr const char* kTopUsage =
    "mpa top --port N [--address A] [--cluster] [--interval MS] [--count N]";
constexpr const char* kTraceUsage =
    "mpa trace [OUT.json] --port N [--address A] [--arm|--disarm] [--clear]";
constexpr const char* kDemoUsage = "mpa demo [--size N] [--noise D] [--seed N]";

void print_usage(std::FILE* out) {
  std::fprintf(out,
               "usage: mpa <info|evolve|filter|schematic|campaign|batch|serve|"
               "forward|submit|result|ps|stats|cancel|drain|checkpoint|"
               "restore|health|backend|top|trace|demo|version> [options]\n"
               "  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n"
               "  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n  %s\n"
               "  %s\n  mpa version\n",
               kInfoUsage, kEvolveUsage, kFilterUsage, kSchematicUsage,
               kCampaignUsage, kBatchUsage, kServeUsage, kForwardUsage,
               kSubmitUsage, kResultUsage, kPsUsage, kStatsUsage,
               kCancelUsage, kDrainUsage, kCheckpointUsage, kRestoreUsage,
               kHealthUsage, kBackendUsage, kTopUsage, kTraceUsage,
               kDemoUsage);
}

int usage() {
  print_usage(stderr);
  return 2;
}

[[noreturn]] void fail(const std::string& message,
                       const char* cmd_usage = nullptr) {
  std::fprintf(stderr, "mpa: %s\n", message.c_str());
  if (cmd_usage != nullptr) std::fprintf(stderr, "usage: %s\n", cmd_usage);
  std::exit(1);
}

/// Required-option lookup: a missing or valueless option prints the
/// subcommand's usage and exits non-zero instead of running ahead.
std::string require(const Cli& cli, const std::string& key,
                    const char* cmd_usage) {
  const std::string v = cli.get(key, "");
  if (v.empty()) fail("missing required option --" + key, cmd_usage);
  return v;
}

/// Fails on any --flag that `cmd_usage` does not list. The Cli accepts
/// every flag, so a mistyped or retired option would otherwise be
/// ignored and the command would run on that option's default.
void reject_unknown_flags(const Cli& cli, const char* cmd_usage) {
  const std::string usage = cmd_usage;
  std::vector<std::string> known;
  for (std::size_t at = usage.find("--"); at != std::string::npos;
       at = usage.find("--", at + 2)) {
    const std::size_t end =
        usage.find_first_not_of("abcdefghijklmnopqrstuvwxyz-", at + 2);
    known.push_back(usage.substr(at + 2, end - (at + 2)));
  }
  for (const auto& entry : cli.flags()) {
    if (std::find(known.begin(), known.end(), entry.first) == known.end()) {
      fail("unknown option --" + entry.first, cmd_usage);
    }
  }
}

/// Size/count option lookup: a value below `min` prints the subcommand's
/// usage and exits non-zero instead of wrapping to a huge std::size_t.
std::size_t require_count(const Cli& cli, const std::string& key,
                          std::int64_t fallback, std::int64_t min,
                          const char* cmd_usage) {
  const std::int64_t value = cli.get_int(key, fallback);
  if (value < min) {
    fail("invalid --" + key + " (>= " + std::to_string(min) + ")",
         cmd_usage);
  }
  return static_cast<std::size_t>(value);
}

int cmd_info(const Cli& cli) {
  const auto stages = static_cast<std::size_t>(cli.get_int("stages", 3));
  resources::render_floorplan(std::cout, stages);
  const resources::UtilizationReport report = resources::utilization(stages);
  Table table({"module", "instances", "slices (total)"});
  for (const auto& m : report.modules) {
    table.add_row({m.module, Table::integer(m.instances),
                   Table::integer(m.total().slices)});
  }
  table.add_row({"TOTAL", "", Table::integer(report.total.slices)});
  table.print(std::cout);
  std::printf("device occupancy: %.1f%% of a Virtex-5 LX110T\n",
              report.device_slice_percent);
  return 0;
}

platform::PlatformConfig make_platform_config(const Cli& cli,
                                              std::size_t line_width,
                                              ThreadPool* pool) {
  platform::PlatformConfig pc;
  pc.num_arrays = static_cast<std::size_t>(cli.get_int("arrays", 3));
  pc.line_width = line_width;
  pc.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  pc.pool = pool;
  return pc;
}

int cmd_evolve(const Cli& cli) {
  const img::Image train = img::read_pgm(require(cli, "train", kEvolveUsage));
  const img::Image ref = img::read_pgm(require(cli, "ref", kEvolveUsage));
  if (!train.same_shape(ref)) fail("train/ref images differ in shape");
  const std::string lib_path = require(cli, "lib", kEvolveUsage);
  const std::string name = require(cli, "name", kEvolveUsage);

  ThreadPool pool;
  platform::EvolvablePlatform plat(
      make_platform_config(cli, train.width(), &pool));
  std::vector<std::size_t> lanes(plat.num_arrays());
  for (std::size_t a = 0; a < lanes.size(); ++a) lanes[a] = a;

  evo::EsConfig es;
  es.generations =
      static_cast<Generation>(cli.get_int("generations", 2000));
  es.mutation_rate = static_cast<std::size_t>(cli.get_int("rate", 3));
  es.two_level = cli.has("two-level");
  es.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const platform::IntrinsicResult r =
      platform::evolve_on_platform(plat, lanes, train, ref, es);

  std::printf("evolved %llu generations, fitness %llu, %.2f s simulated, "
              "%llu DPR writes\n",
              static_cast<unsigned long long>(r.es.generations_run),
              static_cast<unsigned long long>(r.es.best_fitness),
              sim::to_seconds(r.duration),
              static_cast<unsigned long long>(r.pe_writes));

  evo::GenotypeLibrary lib;
  std::ifstream existing(lib_path);
  if (existing) lib = evo::GenotypeLibrary::load(existing);
  lib.put(name, r.es.best);
  lib.save_file(lib_path);
  std::printf("saved '%s' to %s (%zu entries)\n", name.c_str(),
              lib_path.c_str(), lib.size());
  return 0;
}

int cmd_filter(const Cli& cli) {
  const evo::GenotypeLibrary lib =
      evo::GenotypeLibrary::load_file(require(cli, "lib", kFilterUsage));
  const std::string name = require(cli, "name", kFilterUsage);
  if (!lib.contains(name)) fail("library has no entry '" + name + "'");
  const img::Image in = img::read_pgm(require(cli, "in", kFilterUsage));
  const std::string out_path = require(cli, "out", kFilterUsage);

  ThreadPool pool;
  platform::EvolvablePlatform plat(
      make_platform_config(cli, in.width(), &pool));
  plat.configure_array(0, lib.get(name), 0);
  const img::Image out = plat.process_independent(0, in);
  img::write_pgm(out, out_path);
  std::printf("filtered %zux%zu image with '%s' -> %s\n", in.width(),
              in.height(), name.c_str(), out_path.c_str());
  return 0;
}

int cmd_schematic(const Cli& cli) {
  const evo::GenotypeLibrary lib =
      evo::GenotypeLibrary::load_file(require(cli, "lib", kSchematicUsage));
  const std::string name = require(cli, "name", kSchematicUsage);
  if (!lib.contains(name)) fail("library has no entry '" + name + "'");
  const evo::Genotype& g = lib.get(name);
  std::printf("%s\n%s", g.to_string().c_str(),
              pe::render_schematic(g.to_array()).c_str());
  return 0;
}

int cmd_campaign(const Cli& cli) {
  const evo::GenotypeLibrary lib =
      evo::GenotypeLibrary::load_file(require(cli, "lib", kCampaignUsage));
  const std::string name = require(cli, "name", kCampaignUsage);
  if (!lib.contains(name)) fail("library has no entry '" + name + "'");
  const img::Image train = img::read_pgm(require(cli, "train", kCampaignUsage));
  const img::Image ref = img::read_pgm(require(cli, "ref", kCampaignUsage));

  ThreadPool pool;
  platform::EvolvablePlatform plat(
      make_platform_config(cli, train.width(), &pool));
  plat.configure_array(0, lib.get(name), 0);

  analysis::CampaignConfig ccfg;
  ccfg.run_recovery = cli.has("recover");
  ccfg.recovery_es.generations =
      static_cast<Generation>(cli.get_int("generations", 500));
  const analysis::CampaignResult result =
      analysis::run_pe_fault_campaign(plat, 0, train, ref, ccfg);
  analysis::render_criticality_map(std::cout, result, plat.config().shape);
  analysis::render_campaign_table(std::cout, result);
  return 0;
}

const char* status_name(sched::JobStatus status) {
  switch (status) {
    case sched::JobStatus::kQueued: return "queued";
    case sched::JobStatus::kRunning: return "running";
    case sched::JobStatus::kDone: return "done";
    case sched::JobStatus::kFailed: return "FAILED";
    case sched::JobStatus::kCancelled: return "cancelled";
    case sched::JobStatus::kPreempted: return "preempted";
  }
  return "?";
}

int cmd_batch(const Cli& cli) {
  reject_unknown_flags(cli, kBatchUsage);
  const std::string manifest_path = require(cli, "manifest", kBatchUsage);
  std::ifstream manifest(manifest_path);
  if (!manifest) fail("cannot open manifest " + manifest_path, kBatchUsage);
  const std::vector<sched::MissionSpec> specs =
      sched::parse_manifest(manifest);
  if (specs.empty()) fail("manifest has no jobs: " + manifest_path);

  sched::PoolConfig pool_config;
  pool_config.num_arrays = require_count(cli, "arrays", 8, 1, kBatchUsage);
  pool_config.cache_capacity =
      require_count(cli, "cache", 512, 0, kBatchUsage);
  pool_config.max_concurrent_jobs =
      require_count(cli, "max-jobs", 0, 0, kBatchUsage);
  if (cli.has("sequential")) pool_config.max_concurrent_jobs = 1;
  ThreadPool host_pool;
  pool_config.host_pool = &host_pool;

  sched::ArrayPool pool(pool_config);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<sched::MissionRunner>> runners;
  runners.reserve(specs.size());
  for (const sched::MissionSpec& spec : specs) {
    runners.push_back(pool.submit(sched::make_job_config(spec),
                                  sched::make_job_body(spec)));
  }
  pool.wait_all();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  const sched::ArrayPool::ScheduleReport schedule = pool.simulated_schedule();

  Table table({"job", "kind", "lanes", "status", "gens", "fitness", "sim s",
               "pool window s", "cache hit%"});
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sched::MissionSpec& spec = specs[i];
    const sched::JobOutcome& outcome = runners[i]->result();
    const bool cascade = spec.kind == sched::MissionKind::kCascade;
    const Fitness fitness = cascade ? outcome.cascade.chain_fitness
                                    : outcome.intrinsic.es.best_fitness;
    const auto generations =
        cascade ? static_cast<std::uint64_t>(spec.generations)
                : static_cast<std::uint64_t>(
                      outcome.intrinsic.es.generations_run);
    const sched::ArrayPool::ScheduleEntry& window = schedule.jobs[i];
    table.add_row(
        {spec.name, sched::kind_name(spec.kind), Table::integer(spec.lanes),
         status_name(runners[i]->status()), Table::integer(generations),
         Table::integer(fitness),
         Table::num(sim::to_seconds(outcome.stats.mission_time), 3),
         Table::num(sim::to_seconds(window.start), 3) + "-" +
             Table::num(sim::to_seconds(window.end), 3),
         Table::num(100.0 * outcome.stats.cache_hit_rate(), 1)});
    if (runners[i]->status() == sched::JobStatus::kFailed) {
      std::fprintf(stderr, "mpa batch: job '%s' failed: %s\n",
                   spec.name.c_str(), outcome.error.c_str());
    }
  }
  table.print(std::cout);

  const LruStats cache = pool.cache_stats();
  std::printf(
      "pool: %zu arrays, %zu jobs | simulated makespan %.3f s "
      "(serialized %.3f s, speedup %.2fx, %.2f missions/sim-s)\n"
      "compiled-array cache: %llu hits / %llu misses (%.1f%% hit rate, "
      "%llu evictions) | host wall %.0f ms\n",
      pool.num_arrays(), specs.size(), sim::to_seconds(schedule.makespan),
      sim::to_seconds(schedule.serialized), schedule.speedup(),
      schedule.missions_per_sim_second(),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), 100.0 * cache.hit_rate(),
      static_cast<unsigned long long>(cache.evictions), wall_ms);

  for (const auto& runner : runners) {
    if (runner->status() != sched::JobStatus::kDone) return 1;
  }
  return 0;
}

int cmd_version() {
  std::printf("mpa %s (service protocol %d)\n", kVersion,
              svc::kProtocolVersion);
  std::printf("kernels: %s\n", pe::detail::chosen_kernel().name);
  return 0;
}

std::uint16_t require_port(const Cli& cli, const char* cmd_usage) {
  const std::int64_t port = cli.get_int("port", 0);
  if (port <= 0 || port > 65535) {
    fail("missing or invalid --port", cmd_usage);
  }
  return static_cast<std::uint16_t>(port);
}

svc::Client make_client(const Cli& cli, const char* cmd_usage) {
  return svc::Client(require_port(cli, cmd_usage),
                     cli.get("address", "127.0.0.1"),
                     static_cast<int>(cli.get_int("timeout-ms", 0)));
}

/// Reconnect policy from the shared --retries / --timeout-ms flags.
svc::RetryPolicy retry_policy_from_cli(const Cli& cli) {
  svc::RetryPolicy policy;
  policy.retries = static_cast<int>(cli.get_int("retries", 0));
  policy.io_timeout_ms = static_cast<int>(cli.get_int("timeout-ms", 0));
  return policy;
}

/// Boolean-flag lookup that catches the Cli parser's bare-flag hazard: a
/// `--flag` directly followed by a non-flag token swallows that token as
/// its value ("--quiet lanes=4" silently drops lanes=4 from the spec).
/// Fail loudly instead of submitting a corrupted mission.
bool bare_flag(const Cli& cli, const std::string& flag,
               const char* cmd_usage) {
  if (!cli.has(flag)) return false;
  if (!cli.get(flag, "").empty()) {
    fail("--" + flag + " takes no value (it swallowed '" +
             cli.get(flag, "") + "' — place flags after the spec)",
         cmd_usage);
  }
  return true;
}

/// Installs the process-wide fault plan from --fault-plan or, when the
/// flag is absent, the EHW_FAULT_PLAN environment variable. Serving with
/// an armed plan is how the chaos suite exercises the self-healing
/// paths; production runs simply never pass either.
void arm_fault_plan(const Cli& cli, const char* daemon = "serve",
                    const char* cmd_usage = kServeUsage) {
  std::string spec = cli.get("fault-plan", "");
  if (spec.empty()) {
    const char* env = std::getenv("EHW_FAULT_PLAN");
    if (env != nullptr) spec = env;
  }
  if (spec.empty()) return;
  fault::FaultPlan plan;
  const std::string error = fault::parse_plan(spec, plan);
  if (!error.empty()) fail("bad fault plan: " + error, cmd_usage);
  fault::install(plan);
  std::printf("mpa %s: FAULT PLAN ARMED (%s) — runs are for chaos "
              "testing only\n",
              daemon, spec.c_str());
}

/// Shared --metrics-port handling for serve/forward: binds the
/// Prometheus endpoint (0 = ephemeral) and prints the scrape URL —
/// scripts parse the port from that line, like the listening line.
std::unique_ptr<svc::MetricsHttp> make_metrics_endpoint(
    const Cli& cli, const char* cmd_usage, const char* daemon,
    const std::string& address, std::function<std::string()> producer) {
  if (!cli.has("metrics-port")) return nullptr;
  const std::int64_t port = cli.get_int("metrics-port", 0);
  if (port < 0 || port > 65535) {
    fail("invalid --metrics-port (0 = ephemeral, else 1-65535)", cmd_usage);
  }
  auto endpoint = std::make_unique<svc::MetricsHttp>(
      address, static_cast<std::uint16_t>(port), std::move(producer));
  std::printf("mpa %s: metrics on http://%s:%u/metrics\n", daemon,
              address.c_str(), static_cast<unsigned>(endpoint->port()));
  return endpoint;
}

/// Shared northbound flags of serve/forward: --address, --port,
/// --idle-timeout-ms and --max-line. A served endpoint always bounds idle
/// sessions and frame length (library embedders opt in); an idle timeout
/// of 0 disables that bound.
void parse_frontend_flags(const Cli& cli, const char* cmd_usage,
                          svc::FrontendConfig& config) {
  config.address = cli.get("address", "127.0.0.1");
  const std::int64_t port = cli.get_int("port", 0);
  if (port < 0 || port > 65535) {
    fail("invalid --port (0 = ephemeral, else 1-65535)", cmd_usage);
  }
  config.port = static_cast<std::uint16_t>(port);
  const std::int64_t idle_ms = cli.get_int("idle-timeout-ms", 300'000);
  if (idle_ms < 0) fail("invalid --idle-timeout-ms (>= 0)", cmd_usage);
  config.idle_timeout_ms = static_cast<int>(idle_ms);
  const std::int64_t max_line = cli.get_int("max-line", 0);
  if (max_line < 0) fail("invalid --max-line (bytes, 0 = default)", cmd_usage);
  config.max_line = static_cast<std::size_t>(max_line);
}

int cmd_serve(const Cli& cli) {
  reject_unknown_flags(cli, kServeUsage);
  arm_fault_plan(cli);
  // The daemon always records spans — the per-thread rings are near-free
  // and `mpa trace` must have data on demand. Benches and library
  // embedders construct Server directly and stay disarmed.
  obs::Tracer::global().arm();
  svc::ServerConfig config;
  parse_frontend_flags(cli, kServeUsage, config);
  config.pool.num_arrays = require_count(cli, "arrays", 8, 1, kServeUsage);
  config.pool.cache_capacity =
      require_count(cli, "cache", 512, 0, kServeUsage);
  config.pool.max_concurrent_jobs =
      require_count(cli, "max-jobs", 0, 0, kServeUsage);
  config.max_inflight = require_count(cli, "max-inflight", 0, 0, kServeUsage);
  config.journal_dir = cli.get("journal", "");
  const std::int64_t checkpoint_every = cli.get_int("checkpoint-every", 25);
  if (checkpoint_every < 0) {
    fail("invalid --checkpoint-every (generations, 0 = off)", kServeUsage);
  }
  config.checkpoint_every = static_cast<std::uint64_t>(checkpoint_every);
  config.persist_warm = !bare_flag(cli, "no-warm", kServeUsage);
  ThreadPool host_pool;
  config.pool.host_pool = &host_pool;

  svc::Server server(std::move(config));
  std::printf("mpa serve: listening on %s:%u (%zu arrays, protocol %d, "
              "version %s)\n",
              server.config().address.c_str(),
              static_cast<unsigned>(server.port()),
              server.pool().num_arrays(), svc::kProtocolVersion, kVersion);
  const std::unique_ptr<svc::MetricsHttp> metrics = make_metrics_endpoint(
      cli, kServeUsage, "serve", server.config().address,
      [&server] { return server.metrics_text(); });
  if (!server.config().journal_dir.empty()) {
    const svc::JournalStats journal = server.journal_stats();
    std::printf(
        "mpa serve: journal %s | replayed %llu records (%llu finished "
        "re-served, %llu resumed, %llu from checkpoint)%s\n",
        server.config().journal_dir.c_str(),
        static_cast<unsigned long long>(journal.replayed_records),
        static_cast<unsigned long long>(journal.replayed_finished),
        static_cast<unsigned long long>(journal.resumed),
        static_cast<unsigned long long>(journal.resumed_from_checkpoint),
        journal.truncated_tail ? " [truncated tail]" : "");
  }
  std::printf("mpa serve: submit with `mpa submit --port %u <kind> <name> "
              "[key=value ...]`, stop with `mpa drain --port %u --wait`\n",
              static_cast<unsigned>(server.port()),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);  // scripts parse the port from this line

  server.wait_drained();
  server.stop();

  const svc::ServiceStats service = server.service_stats();
  const sched::ArrayPool::PoolStats pool = server.pool().quick_stats();
  const LruStats cache = server.pool().cache_stats();
  std::printf(
      "mpa serve: drained after %llu missions (%llu done, %llu failed, "
      "%llu cancelled, %llu rejected) over %llu connections | cache %.1f%% "
      "hit rate\n",
      static_cast<unsigned long long>(service.submitted),
      static_cast<unsigned long long>(pool.done),
      static_cast<unsigned long long>(pool.failed),
      static_cast<unsigned long long>(pool.cancelled),
      static_cast<unsigned long long>(service.rejected),
      static_cast<unsigned long long>(service.connections),
      100.0 * cache.hit_rate());
  return pool.failed == 0 ? 0 : 1;
}

/// Parses one `host:port[:journal]` backend endpoint (bare `port` means
/// loopback; the optional journal dir is the backend's --journal path as
/// visible from THIS host, enabling checkpoint-carrying failover).
svc::BackendConfig parse_backend(const std::string& arg) {
  svc::BackendConfig backend;
  std::string port_text = arg;
  const std::size_t first = arg.find(':');
  if (first != std::string::npos) {
    backend.address = arg.substr(0, first);
    const std::size_t second = arg.find(':', first + 1);
    if (second != std::string::npos) {
      port_text = arg.substr(first + 1, second - first - 1);
      backend.journal_dir = arg.substr(second + 1);
    } else {
      port_text = arg.substr(first + 1);
    }
  }
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port <= 0 || port > 65535) {
    fail("bad backend '" + arg + "' (want host:port[:journal])",
         kForwardUsage);
  }
  backend.port = static_cast<std::uint16_t>(port);
  return backend;
}

int cmd_forward(const Cli& cli) {
  arm_fault_plan(cli, "forward", kForwardUsage);
  // Same as `mpa serve`: the front records spans (its southbound round
  // trips) so `mpa trace --port FRONT` has data on demand.
  obs::Tracer::global().arm();
  svc::ForwarderConfig config;
  parse_frontend_flags(cli, kForwardUsage, config);
  config.poll_ms = static_cast<int>(cli.get_int("poll-ms", 250));
  config.down_after = static_cast<int>(cli.get_int("down-after", 2));
  config.io_timeout_ms = static_cast<int>(cli.get_int("timeout-ms", 5000));
  for (const std::string& arg : cli.positional()) {
    config.backends.push_back(parse_backend(arg));
  }
  if (config.backends.empty()) {
    fail("no backends given (host:port[:journal] ...)", kForwardUsage);
  }

  svc::Forwarder forwarder(std::move(config));
  const svc::ForwarderStats boot = forwarder.forwarder_stats();
  std::printf("mpa forward: listening on %s:%u (%zu backends, %zu up, "
              "protocol %d, version %s)\n",
              forwarder.config().address.c_str(),
              static_cast<unsigned>(forwarder.port()),
              forwarder.config().backends.size(), boot.backends_up,
              svc::kProtocolVersion, kVersion);
  const std::unique_ptr<svc::MetricsHttp> metrics = make_metrics_endpoint(
      cli, kForwardUsage, "forward", forwarder.config().address,
      [&forwarder] { return forwarder.metrics_text(); });
  std::printf("mpa forward: submit with `mpa submit --port %u <kind> <name> "
              "[key=value ...]`, stop with `mpa drain --port %u --wait`\n",
              static_cast<unsigned>(forwarder.port()),
              static_cast<unsigned>(forwarder.port()));
  std::fflush(stdout);  // scripts parse the port from this line

  forwarder.wait_drained();
  const svc::ForwarderStats stats = forwarder.forwarder_stats();
  forwarder.stop();
  std::printf(
      "mpa forward: drained after %llu missions (%llu rejected, %llu shed, "
      "%llu failovers, %llu resumed from checkpoint, %llu fence cancels, "
      "%llu rejoins)\n",
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.failovers),
      static_cast<unsigned long long>(stats.failover_resumed),
      static_cast<unsigned long long>(stats.fences),
      static_cast<unsigned long long>(stats.rejoins));
  return 0;
}

/// "p50 1.2ms / p99 8.4ms" for one histogram summary in the stats
/// response's telemetry section; "-" while it has no samples.
std::string hist_brief(const Json* telemetry, const char* key) {
  const Json* hist = telemetry != nullptr ? telemetry->get(key) : nullptr;
  if (hist == nullptr ||
      static_cast<std::uint64_t>(hist->get_number("count", 0)) == 0) {
    return "-";
  }
  return "p50 " +
         format_duration_ns(
             static_cast<std::uint64_t>(hist->get_number("p50_ns", 0))) +
         " / p99 " +
         format_duration_ns(
             static_cast<std::uint64_t>(hist->get_number("p99_ns", 0)));
}

int cmd_stats(const Cli& cli) {
  svc::Client client = make_client(cli, kStatsUsage);
  const Json stats = client.stats();
  if (!stats.get_bool("ok", false)) {
    std::fprintf(stderr, "mpa stats: %s\n",
                 stats.get_string("error", "unknown error").c_str());
    return 1;
  }
  const auto row_int = [](const Json& row, const char* key) {
    return Table::integer(static_cast<std::uint64_t>(row.get_number(key, 0)));
  };
  if (stats.get_string("role", "") == "forwarder") {
    Table table({"backend", "endpoint", "up", "arrays", "free", "running",
                 "queued", "done", "failed"});
    const Json* cluster = stats.get("cluster");
    const Json* backends =
        cluster != nullptr ? cluster->get("backends") : nullptr;
    if (backends != nullptr && backends->is_array()) {
      for (const Json& row : backends->as_array()) {
        table.add_row(
            {row_int(row, "backend"),
             row.get_string("address", "?") + ":" +
                 Table::integer(
                     static_cast<std::uint64_t>(row.get_number("port", 0))),
             row.get_bool("reachable", false) ? "yes" : "NO",
             row_int(row, "arrays"), row_int(row, "free_arrays"),
             row_int(row, "running"), row_int(row, "queued"),
             row_int(row, "done"), row_int(row, "failed")});
      }
    }
    table.print(std::cout);
    if (const Json* placement = stats.get("placement"); placement != nullptr) {
      std::printf(
          "placement: %llu backends | %llu placed, %llu affinity hits, "
          "%llu spills\n",
          static_cast<unsigned long long>(
              placement->get_number("backends", 0)),
          static_cast<unsigned long long>(placement->get_number("placed", 0)),
          static_cast<unsigned long long>(
              placement->get_number("affinity_hits", 0)),
          static_cast<unsigned long long>(
              placement->get_number("spills", 0)));
    }
    if (const Json* fwd = stats.get("forwarder"); fwd != nullptr) {
      std::printf(
          "forwarder: %llu submitted, %llu rejected (%llu shed) | "
          "%llu failovers (%llu resumed), %llu fence cancels, %llu rejoins "
          "| %llu routes, %llu/%llu backends up%s\n",
          static_cast<unsigned long long>(fwd->get_number("submitted", 0)),
          static_cast<unsigned long long>(fwd->get_number("rejected", 0)),
          static_cast<unsigned long long>(fwd->get_number("shed", 0)),
          static_cast<unsigned long long>(fwd->get_number("failovers", 0)),
          static_cast<unsigned long long>(
              fwd->get_number("failover_resumed", 0)),
          static_cast<unsigned long long>(fwd->get_number("fences", 0)),
          static_cast<unsigned long long>(fwd->get_number("rejoins", 0)),
          static_cast<unsigned long long>(fwd->get_number("routes", 0)),
          static_cast<unsigned long long>(fwd->get_number("backends_up", 0)),
          static_cast<unsigned long long>(
              backends != nullptr ? backends->as_array().size() : 0),
          fwd->get_bool("draining", false) ? " (draining)" : "");
      // Polls connect afresh each time; every other southbound exchange
      // leases a pooled connection (a connect or a reuse).
      double polls = 0;
      if (backends != nullptr && backends->is_array()) {
        for (const Json& row : backends->as_array()) {
          polls += row.get_number("polls", 0);
        }
      }
      std::printf(
          "southbound: %llu connects, %llu reuses | %llu backend polls\n",
          static_cast<unsigned long long>(
              fwd->get_number("southbound_connects", 0)),
          static_cast<unsigned long long>(
              fwd->get_number("southbound_reuses", 0)),
          static_cast<unsigned long long>(polls));
    }
    return 0;
  }
  // Daemon view: its one pool.
  Table table({"arrays", "free", "running", "queued", "submitted", "done",
               "failed", "quarantined"});
  if (const Json* pool = stats.get("pool"); pool != nullptr) {
    table.add_row({row_int(*pool, "arrays"), row_int(*pool, "free_arrays"),
                   row_int(*pool, "running"), row_int(*pool, "queued"),
                   row_int(*pool, "submitted"), row_int(*pool, "done"),
                   row_int(*pool, "failed"), row_int(*pool, "quarantined")});
  }
  table.print(std::cout);
  if (const Json* service = stats.get("service"); service != nullptr) {
    std::printf("sessions: %llu connections accepted, %llu open\n",
                static_cast<unsigned long long>(
                    service->get_number("connections", 0)),
                static_cast<unsigned long long>(
                    service->get_number("sessions_open", 0)));
  }
  const Json* cache = stats.get("cache");
  const Json* memo = stats.get("memo");
  if (cache != nullptr && memo != nullptr) {
    const double cache_total = cache->get_number("hits", 0) +
                               cache->get_number("misses", 0);
    const double memo_total =
        memo->get_number("hits", 0) + memo->get_number("misses", 0);
    std::printf(
        "cache: %.1f%% hit rate (%llu evictions) | memo: %.1f%% hit rate "
        "(%llu evictions)\n",
        100.0 * cache->get_number("hits", 0) / std::max(1.0, cache_total),
        static_cast<unsigned long long>(cache->get_number("evictions", 0)),
        100.0 * memo->get_number("hits", 0) / std::max(1.0, memo_total),
        static_cast<unsigned long long>(memo->get_number("evictions", 0)));
  }
  if (const Json* telemetry = stats.get("telemetry"); telemetry != nullptr) {
    std::printf("latency: submit->ack %s | mission wall %s\n",
                hist_brief(telemetry, "submit_ack_latency").c_str(),
                hist_brief(telemetry, "mission_wall_time").c_str());
  }
  return 0;
}

/// mpa submit --manifest: the whole job file goes up in ONE submit_batch
/// round trip (atomic admission), then results are collected per job.
int cmd_submit_manifest(const Cli& cli, const std::string& manifest_path) {
  std::ifstream manifest(manifest_path);
  if (!manifest) fail("cannot open manifest " + manifest_path, kSubmitUsage);
  const std::vector<sched::MissionSpec> specs =
      sched::parse_manifest(manifest);
  if (specs.empty()) fail("manifest has no jobs: " + manifest_path);
  const bool detach = bare_flag(cli, "detach", kSubmitUsage);

  svc::Client client = make_client(cli, kSubmitUsage);
  const svc::Client::BatchSubmitted submitted = client.submit_batch(specs);
  if (!submitted.ok) {
    std::fprintf(stderr, "mpa submit: batch rejected: %s\n",
                 submitted.error.c_str());
    return 1;
  }
  std::printf("submitted %zu jobs in one batch to service %s\n",
              submitted.jobs.size(), client.server_version().c_str());
  if (detach) return 0;

  Table table({"job", "name", "kind", "status", "fitness", "sim s",
               "memo hit%"});
  bool all_done = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Json result = client.result(submitted.jobs[i]);
    const std::string status = result.get_string("status", "?");
    all_done = all_done && status == "done";
    const double memo_total = result.get_number("memo_hits", 0) +
                              result.get_number("memo_misses", 0);
    table.add_row(
        {Table::integer(submitted.jobs[i]), specs[i].name,
         sched::kind_name(specs[i].kind), status,
         Table::integer(
             static_cast<std::uint64_t>(result.get_number("best_fitness", 0))),
         Table::num(result.get_number("sim_s", 0.0), 3),
         Table::num(100.0 * result.get_number("memo_hits", 0) /
                        std::max(1.0, memo_total),
                    1)});
  }
  table.print(std::cout);
  return all_done ? 0 : 1;
}

/// Builds a mission spec from positionals: <kind> <name> [key=value ...]
/// (the Cli treats the subcommand word as argv[0], so positionals start
/// at the mission kind). Shared by submit and checkpoint.
sched::MissionSpec spec_from_args(const Cli& cli, const char* cmd_usage) {
  const std::vector<std::string>& args = cli.positional();
  if (args.size() < 2) fail("missing mission kind and name", cmd_usage);
  sched::MissionSpec spec;
  if (!sched::parse_kind(args[0], spec.kind)) {
    fail("unknown mission kind '" + args[0] + "'", cmd_usage);
  }
  spec.name = args[1];
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::size_t eq = args[i].find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == args[i].size()) {
      fail("expected key=value, got '" + args[i] + "'", cmd_usage);
    }
    const std::string error = sched::apply_spec_option(
        spec, args[i].substr(0, eq), args[i].substr(eq + 1));
    if (!error.empty()) fail(error, cmd_usage);
  }
  const std::string invalid = sched::validate_spec(spec);
  if (!invalid.empty()) fail(invalid, cmd_usage);
  return spec;
}

/// How far a finished mission got: a cascade's result carries a `stages`
/// array and no generation count, so it is measured in stages.
struct Extent {
  unsigned long long count;
  const char* unit;
};
Extent extent_of(const Json& result) {
  const Json* stages = result.get("stages");
  if (stages != nullptr && stages->is_array()) {
    return {stages->as_array().size(), "stages"};
  }
  return {static_cast<unsigned long long>(result.get_number("generations", 0)),
          "generations"};
}

/// Shared result-response printer (cmd_result and the retrying submit).
int print_result_response(const Json& response) {
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "mpa result: %s\n",
                 response.get_string("error", "unknown error").c_str());
    return 1;
  }
  const std::string status = response.get_string("status", "?");
  const auto id =
      static_cast<unsigned long long>(response.get_number("job", 0));
  if (status != "done") {
    std::printf("job %llu %s: %s\n", id, status.c_str(),
                response.get_string("error", "(no error detail)").c_str());
    return 1;
  }
  const Extent extent = extent_of(response);
  std::printf(
      "job %llu done%s: fitness %llu, genotype %s, %llu %s, %.3f sim s\n",
      id, response.get_bool("replayed", false) ? " (replayed)" : "",
      static_cast<unsigned long long>(
          response.get_number("best_fitness", 0)),
      response.get_string("genotype_hash", "?").c_str(), extent.count,
      extent.unit, response.get_number("sim_s", 0.0));
  return 0;
}

/// --retries path: at-most-once submit keyed by the mission name, then a
/// blocking result fetch — every op reconnects with exponential backoff,
/// so the mission survives daemon restarts (journal replay re-serves the
/// name) without ever double-running. Note --timeout-ms also bounds the
/// blocking result read; size it to the mission or leave it at 0.
int cmd_submit_retrying(const Cli& cli, const sched::MissionSpec& spec,
                        bool detach) {
  const svc::RetryPolicy policy = retry_policy_from_cli(cli);
  const std::uint16_t port = require_port(cli, kSubmitUsage);
  const std::string address = cli.get("address", "127.0.0.1");
  const svc::IdempotentSubmit submitted =
      svc::submit_idempotent(port, address, spec, policy);
  if (!submitted.ok) {
    std::fprintf(stderr, "mpa submit: rejected: %s\n",
                 submitted.error.c_str());
    return 1;
  }
  std::printf("submitted job %llu (%s %s)%s\n",
              static_cast<unsigned long long>(submitted.job),
              sched::kind_name(spec.kind), spec.name.c_str(),
              submitted.already_known ? " [already known, not resubmitted]"
                                      : "");
  if (detach) return 0;
  // Follow the mission BY NAME: watch_mission re-resolves and
  // re-subscribes across daemon restarts and forwarder failovers (the
  // job id may change; the name never does), so --wait rides through.
  const bool quiet = bare_flag(cli, "quiet", kSubmitUsage);
  const std::uint64_t every =
      std::max<std::uint64_t>(1, spec.generations / 10);
  try {
    const std::string status = svc::watch_mission(
        port, address, spec.name, policy,
        [&](std::uint64_t waves) {
          if (quiet) return;
          std::fprintf(stderr, "%s: %llu waves\n", spec.name.c_str(),
                       static_cast<unsigned long long>(waves));
        },
        every);
    if (!quiet) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(), status.c_str());
    }
  } catch (const std::exception& e) {
    // The stream is a convenience; the result fetch below is the truth.
    std::fprintf(stderr, "mpa submit: %s\n", e.what());
  }
  const Json response = svc::with_retry(
      port, address, policy,
      [&spec](svc::Client& client) { return client.result_by_name(spec.name); });
  return print_result_response(response);
}

int cmd_submit(const Cli& cli) {
  const std::string manifest_path = cli.get("manifest", "");
  if (!manifest_path.empty()) return cmd_submit_manifest(cli, manifest_path);
  const sched::MissionSpec spec = spec_from_args(cli, kSubmitUsage);
  const bool detach = bare_flag(cli, "detach", kSubmitUsage);
  if (cli.get_int("retries", 0) > 0) {
    return cmd_submit_retrying(cli, spec, detach);
  }

  svc::Client client = make_client(cli, kSubmitUsage);
  const svc::Client::Submitted submitted = client.submit(spec);
  if (!submitted.ok) {
    std::fprintf(stderr, "mpa submit: rejected: %s\n",
                 submitted.error.c_str());
    return 1;
  }
  std::printf("submitted job %llu (%s %s) to service %s\n",
              static_cast<unsigned long long>(submitted.job),
              sched::kind_name(spec.kind), spec.name.c_str(),
              client.server_version().c_str());
  if (detach) return 0;

  const bool quiet = bare_flag(cli, "quiet", kSubmitUsage);
  // ~10 progress lines regardless of the mission's budget.
  const std::uint64_t every =
      std::max<std::uint64_t>(1, spec.generations / 10);
  const std::string status = client.watch(
      submitted.job,
      [&](std::uint64_t waves) {
        if (quiet) return;
        std::fprintf(stderr, "job %llu: %llu waves\n",
                     static_cast<unsigned long long>(submitted.job),
                     static_cast<unsigned long long>(waves));
      },
      every);
  const Json result = client.result(submitted.job);
  std::printf("job %llu %s: ", static_cast<unsigned long long>(submitted.job),
              status.c_str());
  if (status == "done") {
    const Extent extent = extent_of(result);
    std::printf("fitness %llu, genotype %s, %llu %s, %.3f sim s, "
                "cache %.1f%%\n",
                static_cast<unsigned long long>(
                    result.get_number("best_fitness", 0)),
                result.get_string("genotype_hash", "?").c_str(), extent.count,
                extent.unit, result.get_number("sim_s", 0.0),
                100.0 * result.get_number("cache_hits", 0) /
                    std::max(1.0, result.get_number("cache_hits", 0) +
                                      result.get_number("cache_misses", 0)));
    return 0;
  }
  std::printf("%s\n", result.get_string("error", "(no error detail)").c_str());
  return 1;
}

/// Job reference fields: all-digits means an id, anything else a name.
void set_job_field(Json& request, const std::string& job) {
  if (!job.empty() &&
      job.find_first_not_of("0123456789") == std::string::npos) {
    request.set("job", static_cast<std::uint64_t>(std::stoull(job)));
  } else {
    request.set("job", job);
  }
}

int cmd_result(const Cli& cli) {
  const std::string job = require(cli, "job", kResultUsage);
  Json request = Json::object();
  request.set("op", "result");
  set_job_field(request, job);
  if (cli.get_int("retries", 0) > 0) {
    // Result is idempotent (a pure read), so a lost connection just
    // re-asks a fresh one — the restarted daemon re-serves finished
    // results from its journal.
    const Json response = svc::with_retry(
        require_port(cli, kResultUsage), cli.get("address", "127.0.0.1"),
        retry_policy_from_cli(cli),
        [&request](svc::Client& client) { return client.request(request); });
    return print_result_response(response);
  }
  svc::Client client = make_client(cli, kResultUsage);
  return print_result_response(client.request(request));
}

/// Final line of a standalone checkpoint/restore run. The fields are the
/// bit-identity contract: a restored run prints the same fitness and
/// genotype hash as the uninterrupted run of the same spec.
int report_standalone_outcome(const char* verb,
                              const sched::MissionSpec& spec,
                              const sched::JobOutcome& outcome) {
  if (!outcome.error.empty()) {
    std::fprintf(stderr, "mpa %s: mission failed: %s\n", verb,
                 outcome.error.c_str());
    return 1;
  }
  const Json body =
      svc::outcome_to_json(spec.kind, sched::JobStatus::kDone, outcome);
  const Extent extent = extent_of(body);
  std::printf(
      "mpa %s: %s %s fitness %llu genotype %s %s %llu sim %.3f s\n", verb,
      sched::kind_name(spec.kind), spec.name.c_str(),
      static_cast<unsigned long long>(body.get_number("best_fitness", 0)),
      body.get_string("genotype_hash", "?").c_str(), extent.unit,
      extent.count, body.get_number("sim_s", 0.0));
  return 0;
}

int cmd_checkpoint(const Cli& cli) {
  const sched::MissionSpec spec = spec_from_args(cli, kCheckpointUsage);
  const std::string out_path = require(cli, "out", kCheckpointUsage);
  const std::int64_t every = cli.get_int("every", 25);
  const std::int64_t preempt = cli.get_int("preempt", 0);
  if (every < 0 || preempt < 0) {
    fail("--every and --preempt must be >= 0", kCheckpointUsage);
  }

  sched::MissionCheckpointing ck;
  ck.every = static_cast<Generation>(every);
  ck.preempt_after = static_cast<Generation>(preempt);
  std::uint64_t written = 0;
  std::string sink_error;
  // One file, atomically replaced each time: the latest checkpoint wins.
  ck.sink = [&](const platform::MissionCheckpoint& state) {
    const std::string error =
        sched::save_mission_checkpoint(out_path, spec, state);
    if (error.empty()) {
      ++written;
    } else {
      sink_error = error;
    }
  };
  ThreadPool host_pool;
  const sched::JobOutcome outcome =
      sched::run_spec_standalone(spec, &host_pool, ck);
  if (!sink_error.empty()) fail("checkpoint write failed: " + sink_error);
  if (preempt != 0) {
    std::printf("mpa checkpoint: preempted %s %s after %llu generations; "
                "%llu checkpoints -> %s\n"
                "mpa checkpoint: resume with `mpa restore --from %s`\n",
                sched::kind_name(spec.kind), spec.name.c_str(),
                static_cast<unsigned long long>(preempt),
                static_cast<unsigned long long>(written), out_path.c_str(),
                out_path.c_str());
    return 0;
  }
  std::printf("mpa checkpoint: %llu checkpoints -> %s\n",
              static_cast<unsigned long long>(written), out_path.c_str());
  return report_standalone_outcome("checkpoint", spec, outcome);
}

int cmd_restore(const Cli& cli) {
  const std::string from = require(cli, "from", kRestoreUsage);
  sched::MissionSpec spec;
  auto resume = std::make_shared<platform::MissionCheckpoint>();
  if (const std::string error =
          sched::load_mission_checkpoint(from, spec, *resume);
      !error.empty()) {
    fail("cannot load " + from + ": " + error, kRestoreUsage);
  }
  // --lanes resumes onto a different physical slice width (migration in
  // miniature): the checkpoint's logical lane count still drives the
  // evolution, so fitness/genotype stay bit-identical; with fewer lanes
  // than logical the simulated time honestly dilates. Cascades refuse a
  // mismatch (stage count is structure).
  const std::int64_t lanes = cli.get_int("lanes", 0);
  if (lanes < 0) fail("--lanes must be >= 1", kRestoreUsage);
  if (lanes > 0) spec.lanes = static_cast<std::size_t>(lanes);
  sched::MissionCheckpointing ck;
  ck.resume = std::move(resume);
  ThreadPool host_pool;
  const sched::JobOutcome outcome =
      sched::run_spec_standalone(spec, &host_pool, ck);
  return report_standalone_outcome("restore", spec, outcome);
}

int cmd_ps(const Cli& cli) {
  const bool cluster = bare_flag(cli, "cluster", kPsUsage);
  svc::Client client = make_client(cli, kPsUsage);
  const Json list = client.list();
  const Json stats = client.stats();
  std::vector<std::string> columns = {"job",   "name",   "kind",
                                      "lanes", "status", "waves", "age"};
  if (cluster) columns.push_back("backend");
  Table table(columns);
  const Json* jobs = list.get("jobs");
  if (jobs != nullptr && jobs->is_array()) {
    for (const Json& entry : jobs->as_array()) {
      std::vector<std::string> row = {
          Table::integer(
              static_cast<std::uint64_t>(entry.get_number("job", 0))),
          entry.get_string("name", "?"), entry.get_string("kind", "?"),
          Table::integer(
              static_cast<std::uint64_t>(entry.get_number("lanes", 0))),
          entry.get_string("status", "?"),
          Table::integer(
              static_cast<std::uint64_t>(entry.get_number("waves", 0))),
          // Jobs replayed from an older daemon incarnation carry no
          // admission stamp — age is unknowable, not zero.
          entry.get("age_ms") != nullptr
              ? format_duration_ms(static_cast<std::uint64_t>(
                    entry.get_number("age_ms", 0)))
              : "-"};
      if (cluster) {
        row.push_back(entry.get("backend") != nullptr
                          ? Table::integer(static_cast<std::uint64_t>(
                                entry.get_number("backend", 0)))
                          : "-");
      }
      table.add_row(row);
    }
  }
  table.print(std::cout);
  if (cluster) {
    if (const Json* fwd = stats.get("forwarder"); fwd != nullptr) {
      std::printf(
          "cluster: %llu submitted, %llu rejected | %llu failovers "
          "(%llu resumed) | %llu backends up%s\n",
          static_cast<unsigned long long>(fwd->get_number("submitted", 0)),
          static_cast<unsigned long long>(fwd->get_number("rejected", 0)),
          static_cast<unsigned long long>(fwd->get_number("failovers", 0)),
          static_cast<unsigned long long>(
              fwd->get_number("failover_resumed", 0)),
          static_cast<unsigned long long>(fwd->get_number("backends_up", 0)),
          fwd->get_bool("draining", false) ? " (draining)" : "");
    }
  }
  const Json* pool = stats.get("pool");
  const Json* service = stats.get("service");
  if (pool != nullptr && service != nullptr) {
    std::printf(
        "pool: %llu arrays (%llu free) | running %llu, queued %llu | "
        "inflight %llu/%llu%s | submitted %llu, rejected %llu\n",
        static_cast<unsigned long long>(pool->get_number("arrays", 0)),
        static_cast<unsigned long long>(pool->get_number("free_arrays", 0)),
        static_cast<unsigned long long>(pool->get_number("running", 0)),
        static_cast<unsigned long long>(pool->get_number("queued", 0)),
        static_cast<unsigned long long>(service->get_number("inflight", 0)),
        static_cast<unsigned long long>(
            service->get_number("max_inflight", 0)),
        service->get_bool("draining", false) ? " (draining)" : "",
        static_cast<unsigned long long>(service->get_number("submitted", 0)),
        static_cast<unsigned long long>(service->get_number("rejected", 0)));
  }
  const Json* journal = stats.get("journal");
  if (journal != nullptr) {
    std::printf(
        "journal: %s | %llu appended, %llu replayed (%llu re-served, "
        "%llu resumed, %llu from checkpoint), %llu checkpoints written%s\n",
        journal->get_string("dir", "?").c_str(),
        static_cast<unsigned long long>(journal->get_number("appended", 0)),
        static_cast<unsigned long long>(
            journal->get_number("replayed_records", 0)),
        static_cast<unsigned long long>(
            journal->get_number("replayed_finished", 0)),
        static_cast<unsigned long long>(journal->get_number("resumed", 0)),
        static_cast<unsigned long long>(
            journal->get_number("resumed_from_checkpoint", 0)),
        static_cast<unsigned long long>(
            journal->get_number("checkpoints_written", 0)),
        journal->get_bool("truncated_tail", false) ? " [truncated tail]"
                                                   : "");
  }
  return 0;
}

int cmd_cancel(const Cli& cli) {
  const std::string job = require(cli, "job", kCancelUsage);
  svc::Client client = make_client(cli, kCancelUsage);
  Json request = Json::object();
  request.set("op", "cancel");
  if (job.find_first_not_of("0123456789") == std::string::npos) {
    request.set("job", static_cast<std::uint64_t>(std::stoull(job)));
  } else {
    request.set("job", job);  // by name
  }
  const Json response = client.request(request);
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "mpa cancel: %s\n",
                 response.get_string("error", "unknown error").c_str());
    return 1;
  }
  std::printf("cancel requested for job %llu (status %s)\n",
              static_cast<unsigned long long>(response.get_number("job", 0)),
              response.get_string("status", "?").c_str());
  return 0;
}

int cmd_drain(const Cli& cli) {
  const bool wait = bare_flag(cli, "wait", kDrainUsage);
  svc::Client client = make_client(cli, kDrainUsage);
  const Json response = client.drain(wait);
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "mpa drain: %s\n",
                 response.get_string("error", "unknown error").c_str());
    return 1;
  }
  std::printf("service draining; %llu missions still in flight\n",
              static_cast<unsigned long long>(
                  response.get_number("inflight", 0)));
  return 0;
}

int cmd_health(const Cli& cli) {
  const bool cluster = bare_flag(cli, "cluster", kHealthUsage);
  svc::Client client = make_client(cli, kHealthUsage);
  Json request = Json::object();
  request.set("op", "health");
  const Json response = client.request(request);
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "mpa health: %s\n",
                 response.get_string("error", "unknown error").c_str());
    return 1;
  }
  if (cluster) {
    // Forwarder view: one row per backend daemon. "STALE" flags a
    // backend that answers but whose last good stats poll is older than
    // 2x the poll cadence — suspect placement data, not an outage.
    Table table({"backend", "endpoint", "reachable", "epoch", "poll age",
                 "stale", "healthy", "quarantined", "preempted", "migrated",
                 "last fence"});
    const Json* backends = response.get("backends");
    if (backends != nullptr && backends->is_array()) {
      for (const Json& entry : backends->as_array()) {
        if (entry.get_bool("removed", false)) {
          table.add_row(
              {Table::integer(static_cast<std::uint64_t>(
                   entry.get_number("backend", 0))),
               entry.get_string("address", "?") + ":" +
                   Table::integer(static_cast<std::uint64_t>(
                       entry.get_number("port", 0))),
               "removed", "-", "-", "-", "-", "-", "-", "-", "-"});
          continue;
        }
        table.add_row(
            {Table::integer(
                 static_cast<std::uint64_t>(entry.get_number("backend", 0))),
             entry.get_string("address", "?") + ":" +
                 Table::integer(static_cast<std::uint64_t>(
                     entry.get_number("port", 0))),
             entry.get_bool("reachable", false) ? "yes" : "NO",
             entry.get("epoch") != nullptr
                 ? Table::integer(static_cast<std::uint64_t>(
                       entry.get_number("epoch", 0)))
                 : "-",
             entry.get("poll_age_ms") != nullptr
                 ? format_duration_ms(static_cast<std::uint64_t>(
                       entry.get_number("poll_age_ms", 0)))
                 : "-",
             entry.get("stale") != nullptr
                 ? (entry.get_bool("stale", false) ? "STALE" : "no")
                 : "-",
             Table::integer(
                 static_cast<std::uint64_t>(entry.get_number("healthy", 0))),
             Table::integer(static_cast<std::uint64_t>(
                 entry.get_number("quarantined", 0))),
             Table::integer(static_cast<std::uint64_t>(
                 entry.get_number("preempted", 0))),
             Table::integer(static_cast<std::uint64_t>(
                 entry.get_number("migrations", 0))),
             entry.get_string("last_fence", "-")});
      }
    }
    table.print(std::cout);
    std::printf(
        "cluster: healthy %llu, quarantined %llu, stale backends %llu, "
        "unreachable backends %llu\n",
        static_cast<unsigned long long>(response.get_number("healthy", 0)),
        static_cast<unsigned long long>(
            response.get_number("quarantined", 0)),
        static_cast<unsigned long long>(response.get_number("stale", 0)),
        static_cast<unsigned long long>(
            response.get_number("unreachable", 0)));
    return response.get_number("unreachable", 0) == 0 ? 0 : 1;
  }
  Table table({"array", "state", "job"});
  const Json* arrays = response.get("arrays");
  if (arrays != nullptr && arrays->is_array()) {
    for (const Json& entry : arrays->as_array()) {
      std::string state = entry.get_string("state", "?");
      if (entry.get_bool("pending_quarantine", false)) {
        state += " (quarantine pending)";
      }
      table.add_row(
          {Table::integer(
               static_cast<std::uint64_t>(entry.get_number("array", 0))),
           state, entry.get_string("job", "")});
    }
  }
  table.print(std::cout);
  std::printf(
      "healthy %llu, quarantined %llu | preempted %llu, migrated %llu, "
      "deadline-expired %llu\n",
      static_cast<unsigned long long>(response.get_number("healthy", 0)),
      static_cast<unsigned long long>(response.get_number("quarantined", 0)),
      static_cast<unsigned long long>(response.get_number("preempted", 0)),
      static_cast<unsigned long long>(response.get_number("migrations", 0)),
      static_cast<unsigned long long>(
          response.get_number("deadline_expired", 0)));
  const Json* faults = response.get("faults");
  if (faults != nullptr && faults->get_bool("active", false)) {
    std::printf("fault plan ACTIVE:\n");
    const Json* sites = faults->get("sites");
    if (sites != nullptr && sites->is_object()) {
      for (const auto& [site, counters] : sites->as_object()) {
        std::printf("  %-16s %llu hits, %llu fired\n", site.c_str(),
                    static_cast<unsigned long long>(
                        counters.get_number("hits", 0)),
                    static_cast<unsigned long long>(
                        counters.get_number("fired", 0)));
      }
    }
  }
  return 0;
}

/// mpa backend: live cluster membership against a forwarder — list the
/// member table (epochs, fences), add a daemon without restarting, or
/// tombstone one (its unfinished missions evacuate to the survivors).
int cmd_backend(const Cli& cli) {
  const std::vector<std::string>& args = cli.positional();
  if (args.empty()) fail("missing action (list|add|remove)", kBackendUsage);
  const std::string& action = args.front();
  svc::Client client = make_client(cli, kBackendUsage);
  Json request = Json::object();
  request.set("op", "backend");
  request.set("action", action);
  if (action == "add") {
    if (args.size() != 2) {
      fail("backend add needs one host:port[:journal] endpoint",
           kBackendUsage);
    }
    const svc::BackendConfig endpoint = parse_backend(args[1]);
    request.set("address", endpoint.address);
    request.set("port", static_cast<std::uint64_t>(endpoint.port));
    if (!endpoint.journal_dir.empty()) {
      request.set("journal", endpoint.journal_dir);
    }
  } else if (action == "remove") {
    const std::int64_t index = cli.get_int("backend", -1);
    if (index < 0) fail("backend remove needs --backend INDEX", kBackendUsage);
    request.set("backend", static_cast<std::uint64_t>(index));
  } else if (action != "list") {
    fail("unknown action '" + action + "' (list|add|remove)", kBackendUsage);
  }
  const Json response = client.request(request);
  if (!response.get_bool("ok", false)) {
    std::fprintf(stderr, "mpa backend: %s\n",
                 response.get_string("error", "unknown error").c_str());
    return 1;
  }
  if (action == "add") {
    std::printf("backend %llu added (%s)\n",
                static_cast<unsigned long long>(
                    response.get_number("backend", 0)),
                response.get_bool("reachable", false)
                    ? "reachable"
                    : "NOT reachable yet — it will be polled");
    return 0;
  }
  if (action == "remove") {
    std::printf("backend %llu removed, %llu mission(s) evacuated\n",
                static_cast<unsigned long long>(
                    response.get_number("backend", 0)),
                static_cast<unsigned long long>(
                    response.get_number("evacuated", 0)));
    return 0;
  }
  Table table({"backend", "endpoint", "reachable", "epoch", "instance",
               "rejoins", "fences", "last fence"});
  const Json* backends = response.get("backends");
  if (backends != nullptr && backends->is_array()) {
    for (const Json& entry : backends->as_array()) {
      const std::string endpoint =
          entry.get_string("address", "?") + ":" +
          Table::integer(
              static_cast<std::uint64_t>(entry.get_number("port", 0)));
      if (entry.get_bool("removed", false)) {
        table.add_row(
            {Table::integer(static_cast<std::uint64_t>(
                 entry.get_number("backend", 0))),
             endpoint, "removed", "-", "-", "-", "-", "-"});
        continue;
      }
      table.add_row(
          {Table::integer(
               static_cast<std::uint64_t>(entry.get_number("backend", 0))),
           endpoint, entry.get_bool("reachable", false) ? "yes" : "NO",
           entry.get("epoch") != nullptr
               ? Table::integer(static_cast<std::uint64_t>(
                     entry.get_number("epoch", 0)))
               : "-",
           entry.get_string("instance_id", "-"),
           Table::integer(
               static_cast<std::uint64_t>(entry.get_number("rejoins", 0))),
           Table::integer(
               static_cast<std::uint64_t>(entry.get_number("fences", 0))),
           entry.get_string("last_fence", "-")});
    }
  }
  table.print(std::cout);
  return 0;
}

/// mpa trace: the `trace` protocol op. Ops run in dump-before-clear
/// order, so `mpa trace out.json --clear` snapshots the rings and then
/// resets them — the natural profiling loop.
int cmd_trace(const Cli& cli) {
  const bool arm = bare_flag(cli, "arm", kTraceUsage);
  const bool disarm = bare_flag(cli, "disarm", kTraceUsage);
  const bool clear = bare_flag(cli, "clear", kTraceUsage);
  if (arm && disarm) fail("--arm and --disarm conflict", kTraceUsage);
  const std::vector<std::string>& args = cli.positional();
  if (args.size() > 1) fail("expected at most one OUT.json", kTraceUsage);
  const std::string out_path = args.empty() ? "" : args.front();
  if (out_path.empty() && !arm && !disarm && !clear) {
    fail("nothing to do (give OUT.json and/or --arm/--disarm/--clear)",
         kTraceUsage);
  }

  svc::Client client = make_client(cli, kTraceUsage);
  const auto trace_op = [&client](const char* mode) -> Json {
    Json request = Json::object();
    request.set("op", "trace");
    request.set("mode", mode);
    Json response = client.request(request);
    if (!response.get_bool("ok", false)) {
      fail("trace " + std::string(mode) + " failed: " +
           response.get_string("error", "unknown error"));
    }
    return response;
  };

  Json last = Json::object();
  if (arm) last = trace_op("arm");
  if (disarm) last = trace_op("disarm");
  if (!out_path.empty()) {
    last = trace_op("dump");
    const Json* trace = last.get("trace");
    if (trace == nullptr) fail("daemon sent no trace section");
    std::ofstream out(out_path);
    if (!out) fail("cannot open " + out_path + " for writing");
    out << trace->dump() << "\n";
    out.close();
    if (!out) fail("short write to " + out_path);
    const Json* events = trace->get("traceEvents");
    const std::size_t spans =
        events != nullptr && events->is_array() ? events->as_array().size()
                                                : 0;
    std::printf("mpa trace: wrote %zu spans to %s (load into "
                "chrome://tracing or ui.perfetto.dev)\n",
                spans, out_path.c_str());
  }
  if (clear) last = trace_op("clear");
  std::printf("mpa trace: tracer %s | %llu spans in the rings, %llu "
              "dropped\n",
              last.get_bool("armed", false) ? "armed" : "disarmed",
              static_cast<unsigned long long>(
                  last.get_number("recorded", 0)),
              static_cast<unsigned long long>(last.get_number("dropped", 0)));
  return 0;
}

/// Puts stdin into raw no-echo per-key mode for `mpa top` so a bare `q`
/// quits; the saved state is restored on destruction (including during
/// the unwind when the daemon hangs up mid-watch). A non-tty stdin (CI,
/// pipes) is left alone and top degrades to plain interval sleeps.
class RawStdin {
 public:
  RawStdin() {
    if (::isatty(STDIN_FILENO) != 1) return;
    if (::tcgetattr(STDIN_FILENO, &saved_) != 0) return;
    termios raw = saved_;
    raw.c_lflag &= ~static_cast<tcflag_t>(ICANON | ECHO);
    raw.c_cc[VMIN] = 0;
    raw.c_cc[VTIME] = 0;
    active_ = ::tcsetattr(STDIN_FILENO, TCSANOW, &raw) == 0;
  }
  ~RawStdin() {
    if (active_) ::tcsetattr(STDIN_FILENO, TCSANOW, &saved_);
  }
  RawStdin(const RawStdin&) = delete;
  RawStdin& operator=(const RawStdin&) = delete;
  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  termios saved_{};
  bool active_ = false;
};

/// Sleeps up to `ms` between frames; true means the user pressed q.
/// (Ctrl-C still raises SIGINT — raw mode keeps ISIG.)
bool top_wait_quit(bool keys, int ms) {
  if (!keys) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return false;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  for (;;) {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (left <= 0) return false;
    pollfd pfd{STDIN_FILENO, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (ready == 0) return false;  // interval elapsed: next frame
    char c = 0;
    if (::read(STDIN_FILENO, &c, 1) == 1 && (c == 'q' || c == 'Q')) {
      return true;
    }
  }
}

/// "p50 412us / p99 1.3ms" from one of the stats op's telemetry
/// summaries; "-" until the histogram has samples.
/// One `mpa top` frame, composed off-screen and emitted as a single
/// write after the clear escape so the redraw doesn't flicker. `health`
/// is non-null only for the forwarder view (stale backend flags).
std::string render_top_frame(const Json& stats, const Json& list,
                             const Json* health, const std::string& endpoint,
                             double interval_s, bool keys) {
  std::string out = "mpa top - " + endpoint + " - every " +
                    Table::num(interval_s, 1) + "s" +
                    (keys ? " - q quits" : "") + "\n\n";
  char line[512];
  const bool cluster_view = stats.get_string("role", "") == "forwarder";
  if (cluster_view) {
    Table table({"backend", "endpoint", "up", "stale", "poll age", "free",
                 "running", "queued", "done", "failed"});
    const Json* cluster = stats.get("cluster");
    const Json* backends =
        cluster != nullptr ? cluster->get("backends") : nullptr;
    // The health op's backend rows are index-aligned with the stats
    // op's (both walk the configured backend list in order).
    const Json* health_backends =
        health != nullptr ? health->get("backends") : nullptr;
    if (backends != nullptr && backends->is_array()) {
      const auto& rows = backends->as_array();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const Json& row = rows[i];
        std::string stale = "-";
        if (health_backends != nullptr && health_backends->is_array() &&
            i < health_backends->as_array().size()) {
          const Json& h = health_backends->as_array()[i];
          if (h.get("stale") != nullptr) {
            stale = h.get_bool("stale", false) ? "STALE" : "no";
          }
        }
        table.add_row(
            {Table::integer(
                 static_cast<std::uint64_t>(row.get_number("backend", 0))),
             row.get_string("address", "?") + ":" +
                 Table::integer(static_cast<std::uint64_t>(
                     row.get_number("port", 0))),
             row.get_bool("reachable", false) ? "yes" : "NO", stale,
             row.get("poll_age_ms") != nullptr
                 ? format_duration_ms(static_cast<std::uint64_t>(
                       row.get_number("poll_age_ms", 0)))
                 : "-",
             Table::integer(static_cast<std::uint64_t>(
                 row.get_number("free_arrays", 0))),
             Table::integer(
                 static_cast<std::uint64_t>(row.get_number("running", 0))),
             Table::integer(
                 static_cast<std::uint64_t>(row.get_number("queued", 0))),
             Table::integer(
                 static_cast<std::uint64_t>(row.get_number("done", 0))),
             Table::integer(static_cast<std::uint64_t>(
                 row.get_number("failed", 0)))});
      }
    }
    out += table.to_string();
    if (const Json* fwd = stats.get("forwarder"); fwd != nullptr) {
      std::snprintf(
          line, sizeof(line),
          "forwarder: %llu submitted, %llu rejected | %llu failovers "
          "(%llu resumed) | %llu routes, %llu backends up%s\n",
          static_cast<unsigned long long>(fwd->get_number("submitted", 0)),
          static_cast<unsigned long long>(fwd->get_number("rejected", 0)),
          static_cast<unsigned long long>(fwd->get_number("failovers", 0)),
          static_cast<unsigned long long>(
              fwd->get_number("failover_resumed", 0)),
          static_cast<unsigned long long>(fwd->get_number("routes", 0)),
          static_cast<unsigned long long>(
              fwd->get_number("backends_up", 0)),
          fwd->get_bool("draining", false) ? " (draining)" : "");
      out += line;
    }
  } else {
    const Json* pool = stats.get("pool");
    const Json* service = stats.get("service");
    if (pool != nullptr && service != nullptr) {
      std::snprintf(
          line, sizeof(line),
          "pool: %llu arrays (%llu free) | running %llu, queued %llu | "
          "inflight %llu/%llu%s | submitted %llu, rejected %llu\n",
          static_cast<unsigned long long>(pool->get_number("arrays", 0)),
          static_cast<unsigned long long>(
              pool->get_number("free_arrays", 0)),
          static_cast<unsigned long long>(pool->get_number("running", 0)),
          static_cast<unsigned long long>(pool->get_number("queued", 0)),
          static_cast<unsigned long long>(
              service->get_number("inflight", 0)),
          static_cast<unsigned long long>(
              service->get_number("max_inflight", 0)),
          service->get_bool("draining", false) ? " (draining)" : "",
          static_cast<unsigned long long>(
              service->get_number("submitted", 0)),
          static_cast<unsigned long long>(
              service->get_number("rejected", 0)));
      out += line;
    }
    const Json* telemetry = stats.get("telemetry");
    out += "latency: submit->ack " +
           hist_brief(telemetry, "submit_ack_latency") + " | mission wall " +
           hist_brief(telemetry, "mission_wall_time") + "\n";
    const Json* cache = stats.get("cache");
    const Json* memo = stats.get("memo");
    if (cache != nullptr && memo != nullptr) {
      const double cache_total =
          cache->get_number("hits", 0) + cache->get_number("misses", 0);
      const double memo_total =
          memo->get_number("hits", 0) + memo->get_number("misses", 0);
      std::snprintf(line, sizeof(line),
                    "cache: %.1f%% hit | memo: %.1f%% hit | tracer %s\n",
                    100.0 * cache->get_number("hits", 0) /
                        std::max(1.0, cache_total),
                    100.0 * memo->get_number("hits", 0) /
                        std::max(1.0, memo_total),
                    telemetry != nullptr &&
                            telemetry->get_bool("trace_armed", false)
                        ? "armed"
                        : "disarmed");
      out += line;
    }
  }
  out += "\n";
  const Json* jobs = list.get("jobs");
  if (jobs != nullptr && jobs->is_array()) {
    const auto& rows = jobs->as_array();
    // Newest page of jobs; older history scrolls off like top(1).
    constexpr std::size_t kTopJobs = 15;
    const std::size_t first =
        rows.size() > kTopJobs ? rows.size() - kTopJobs : 0;
    std::vector<std::string> columns = {"job",   "name",  "kind",
                                        "status", "waves", "age"};
    if (cluster_view) columns.push_back("backend");
    Table table(columns);
    for (std::size_t i = first; i < rows.size(); ++i) {
      const Json& entry = rows[i];
      std::vector<std::string> row = {
          Table::integer(
              static_cast<std::uint64_t>(entry.get_number("job", 0))),
          entry.get_string("name", "?"), entry.get_string("kind", "?"),
          entry.get_string("status", "?"),
          Table::integer(
              static_cast<std::uint64_t>(entry.get_number("waves", 0))),
          entry.get("age_ms") != nullptr
              ? format_duration_ms(static_cast<std::uint64_t>(
                    entry.get_number("age_ms", 0)))
              : "-"};
      if (cluster_view) {
        row.push_back(entry.get("backend") != nullptr
                          ? Table::integer(static_cast<std::uint64_t>(
                                entry.get_number("backend", 0)))
                          : "-");
      }
      table.add_row(row);
    }
    if (first > 0) {
      out += Table::integer(first) + " older jobs not shown\n";
    }
    out += table.to_string();
  }
  return out;
}

int cmd_top(const Cli& cli) {
  const bool cluster = bare_flag(cli, "cluster", kTopUsage);
  const std::int64_t interval = cli.get_int("interval", 1000);
  if (interval < 50) fail("--interval must be >= 50 ms", kTopUsage);
  const std::int64_t count = cli.get_int("count", 0);
  if (count < 0) fail("--count must be >= 0 (0 = run until q)", kTopUsage);
  const std::uint16_t port = require_port(cli, kTopUsage);
  const std::string address = cli.get("address", "127.0.0.1");
  const std::string endpoint = address + ":" + std::to_string(port);
  svc::Client client = make_client(cli, kTopUsage);
  RawStdin keys;
  for (std::int64_t frame = 0; count == 0 || frame < count; ++frame) {
    if (frame != 0 &&
        top_wait_quit(keys.active(), static_cast<int>(interval))) {
      break;
    }
    const Json stats = client.stats();
    const Json list = client.list();
    Json health = Json::object();
    const bool want_health =
        cluster || stats.get_string("role", "") == "forwarder";
    if (want_health) {
      Json request = Json::object();
      request.set("op", "health");
      health = client.request(request);
    }
    const std::string body =
        render_top_frame(stats, list, want_health ? &health : nullptr,
                         endpoint, static_cast<double>(interval) / 1000.0,
                         keys.active());
    std::fputs("\x1b[2J\x1b[H", stdout);  // clear screen, cursor home
    std::fputs(body.c_str(), stdout);
    std::fflush(stdout);
  }
  return 0;
}

int cmd_demo(const Cli& cli) {
  const auto size = static_cast<std::size_t>(cli.get_int("size", 64));
  const double noise = cli.get_double("noise", 0.3);
  const img::Image clean = img::make_scene(size, size, 7);
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
  const img::Image noisy = img::add_salt_pepper(clean, noise, rng);
  img::write_pgm(clean, "demo_ref.pgm");
  img::write_pgm(noisy, "demo_train.pgm");
  std::printf(
      "wrote demo_train.pgm / demo_ref.pgm (%zux%zu, %.0f%% salt&pepper)\n"
      "try:\n"
      "  mpa evolve --train demo_train.pgm --ref demo_ref.pgm "
      "--lib demo_lib.txt --name denoise --generations 2000\n"
      "  mpa filter --lib demo_lib.txt --name denoise --in demo_train.pgm "
      "--out demo_out.pgm\n"
      "  mpa schematic --lib demo_lib.txt --name denoise\n"
      "  mpa campaign --lib demo_lib.txt --name denoise --train "
      "demo_train.pgm --ref demo_ref.pgm --recover\n",
      size, size, noise * 100);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_usage(stdout);
    return 0;
  }
  if (cmd == "version" || cmd == "--version" || cmd == "-V") {
    return cmd_version();
  }
  const Cli cli(argc - 1, argv + 1);
  try {
    if (cmd == "info") return cmd_info(cli);
    if (cmd == "evolve") return cmd_evolve(cli);
    if (cmd == "filter") return cmd_filter(cli);
    if (cmd == "schematic") return cmd_schematic(cli);
    if (cmd == "campaign") return cmd_campaign(cli);
    if (cmd == "batch") return cmd_batch(cli);
    if (cmd == "serve") return cmd_serve(cli);
    if (cmd == "forward") return cmd_forward(cli);
    if (cmd == "submit") return cmd_submit(cli);
    if (cmd == "result") return cmd_result(cli);
    if (cmd == "ps") return cmd_ps(cli);
    if (cmd == "stats") return cmd_stats(cli);
    if (cmd == "cancel") return cmd_cancel(cli);
    if (cmd == "drain") return cmd_drain(cli);
    if (cmd == "checkpoint") return cmd_checkpoint(cli);
    if (cmd == "restore") return cmd_restore(cli);
    if (cmd == "health") return cmd_health(cli);
    if (cmd == "backend") return cmd_backend(cli);
    if (cmd == "top") return cmd_top(cli);
    if (cmd == "trace") return cmd_trace(cli);
    if (cmd == "demo") return cmd_demo(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpa %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "mpa: unknown subcommand '%s'\n", cmd.c_str());
  return usage();
}
