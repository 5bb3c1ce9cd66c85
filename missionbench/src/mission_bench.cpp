// mission_bench — drives one workload against an in-process mission
// service and records raw samples for missionbench/stats.py.
//
//   mission_bench --workload NAME --seed N --seconds S --trace 0|1
//                 --scratch DIR --out FILE
//
// The service (svc::Server, plus svc::Forwarder over backends where the
// workload needs it) runs in this process; the load generator talks to it
// only through svc::Client over loopback, with at most four connections
// and four generator threads. Set-up is repeated a few times and each
// repetition timed. With --trace 0 one untraced service pass runs for S
// seconds. With --trace 1 an untraced and a traced pass run for S/2
// seconds each, then the traced pass's missions are replayed through the
// scheduler with each layer timed (replay.cpp). Every `done` result is
// checked against sched::run_spec_standalone outside the timed window.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "ehw/common/rng.hpp"
#include "ehw/svc/client.hpp"
#include "ehw/svc/forwarder.hpp"
#include "ehw/svc/protocol.hpp"
#include "ehw/svc/server.hpp"

namespace mbench {
namespace {

using ehw::Json;
namespace sched = ehw::sched;
namespace svc = ehw::svc;
namespace fs = std::filesystem;

/// Set-up repetitions per run; setup_s is their median. A run sets up at
/// least kMinSetups times and keeps going until kSetupBudgetSeconds have passed or
/// kMaxSetups is reached, so a set-up of a few ms is sampled as densely as
/// one of a few hundred.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 40;
constexpr double kSetupBudgetSeconds = 1.5;
/// Finished-job records each daemon retains (its default is 4096). Kept
/// small so resident memory reaches its steady state early in a run;
/// otherwise rss_mb would grow with the number of missions a run finishes.
constexpr std::size_t kJobRecords = 1024;
/// Reader cadence: one refresh (status + stats) per tick. Through a
/// front, each status of a running mission opens a connection to its
/// backend; a faster cadence fills the loopback port range with
/// TIME_WAIT sockets, which slows every later connect on the host.
constexpr auto kReadTick = std::chrono::milliseconds(20);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;
  std::string out;
};

/// The in-process service plus the generator's connections.
class Deployment {
 public:
  Deployment(const Workload& workload, const std::string& journal_dir)
      : workload_(workload), journal_dir_(journal_dir) {
    const std::size_t daemons = std::max<std::size_t>(1, workload.backends);
    svc::ForwarderConfig front;
    for (std::size_t i = 0; i < daemons; ++i) {
      svc::ServerConfig config;
      config.pool = workload.pool;
      config.max_inflight = workload.max_inflight;
      config.max_job_records = kJobRecords;
      if (workload.journaled) {
        config.journal_dir = journal_dir;
        config.checkpoint_every = workload.checkpoint_every;
      }
      servers_.push_back(std::make_unique<svc::Server>(config));
      svc::BackendConfig backend;
      backend.port = servers_.back()->port();
      front.backends.push_back(backend);
    }
    std::uint16_t port = servers_.front()->port();
    if (workload.backends > 0) {
      forwarder_ = std::make_unique<svc::Forwarder>(std::move(front));
      port = forwarder_->port();
    }
    // Open loop: one submitting connection plus the result collectors.
    const std::size_t missions =
        workload.mission_connections + (workload.open_loop ? 1 : 0);
    for (std::size_t i = 0; i < missions; ++i) {
      clients_.push_back(std::make_unique<svc::Client>(port));
    }
    reader_ = std::make_unique<svc::Client>(port);
  }

  ~Deployment() {
    // Connections first, then the front, then its backends.
    direct_.reset();
    reader_.reset();
    clients_.clear();
    forwarder_.reset();
    servers_.clear();
  }

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] svc::Client& client(std::size_t i) { return *clients_[i]; }
  [[nodiscard]] svc::Client& reader() { return *reader_; }
  [[nodiscard]] bool federated() const { return forwarder_ != nullptr; }

  /// A connection straight to backend 0, bypassing the front (forward-hop
  /// probe of the traced pass). Without a front it is a second connection
  /// to the same daemon: the probe then crosses no hop and measures only
  /// its own bias (the first call follows the reader's sleep).
  [[nodiscard]] svc::Client& direct() {
    if (direct_ == nullptr) {
      direct_ = std::make_unique<svc::Client>(servers_.front()->port());
    }
    return *direct_;
  }

  /// Bytes under the journal directory (0 when not journaled).
  [[nodiscard]] double journal_bytes() const {
    if (!workload_.journaled) return 0.0;
    std::uintmax_t total = 0;
    std::error_code error;
    for (const auto& entry :
         fs::recursive_directory_iterator(journal_dir_, error)) {
      if (entry.is_regular_file(error)) total += entry.file_size(error);
    }
    return static_cast<double>(total);
  }

  /// Runs `specs` to completion over the mission connections (each
  /// connection submits and waits on its share). Throws unless all are
  /// done.
  void run_round(const std::vector<sched::MissionSpec>& specs) {
    std::vector<std::thread> threads;
    std::atomic<std::size_t> failures{0};
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i = c; i < specs.size(); i += clients_.size()) {
          const svc::Client::Submitted sub = clients_[c]->submit(specs[i]);
          if (!sub.ok ||
              clients_[c]->result(sub.job).get_string("status", "") != "done") {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    if (failures.load() != 0) {
      throw std::runtime_error("warm-up mission did not finish done");
    }
  }

 private:
  const Workload& workload_;
  std::string journal_dir_;
  std::vector<std::unique_ptr<svc::Server>> servers_;
  std::unique_ptr<svc::Forwarder> forwarder_;
  std::vector<std::unique_ptr<svc::Client>> clients_;
  std::unique_ptr<svc::Client> reader_;
  std::unique_ptr<svc::Client> direct_;
};

struct MissionRecord {
  std::size_t index = 0;
  sched::MissionSpec spec;
  double due_s = -1.0;  // open loop only
  double sent_s = 0.0;
  double ack_s = 0.0;
  double recv_s = 0.0;
  /// done/failed/cancelled from the result; "refused" for queue_full or
  /// draining; "rejected" for any other submit error.
  std::string status;
  Json result;
  bool identical = false;  // set by the correctness gate
};

/// One refresh of the operator's view: a status and a stats round trip.
struct ReadSample {
  double status_us = 0.0;
  double stats_us = 0.0;
};

struct Pass {
  std::vector<MissionRecord> missions;
  std::vector<ReadSample> reads;
  std::vector<double> hop_front_us;
  std::vector<double> hop_direct_us;
  Json stats_before;
  Json stats_after;
  double journal_bytes_before = 0.0;
  double journal_bytes_after = 0.0;
};

/// Hands submitted jobs to one result collector.
class JobQueue {
 public:
  void push(std::size_t record, std::uint64_t job) {
    {
      std::lock_guard lock(mutex_);
      jobs_.emplace_back(record, job);
    }
    cv_.notify_one();
  }
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }
  /// False once closed and empty.
  bool pop(std::size_t& record, std::uint64_t& job) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || !jobs_.empty(); });
    if (jobs_.empty()) return false;
    std::tie(record, job) = jobs_.front();
    jobs_.pop_front();
    return true;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::pair<std::size_t, std::uint64_t>> jobs_;
  bool closed_ = false;
};

/// Submits one mission and records the ack; false when it was refused.
bool submit_one(svc::Client& client, MissionRecord& record,
                Clock::time_point origin, std::uint64_t& job) {
  record.sent_s = seconds_since(origin, Clock::now());
  const svc::Client::Submitted sub = client.submit(record.spec);
  record.ack_s = seconds_since(origin, Clock::now());
  if (!sub.ok) {
    record.status = sub.code == "queue_full" || sub.code == "draining"
                        ? "refused"
                        : "rejected";
    return false;
  }
  job = sub.job;
  return true;
}

void collect_one(svc::Client& client, MissionRecord& record,
                 Clock::time_point origin, std::uint64_t job) {
  record.result = client.result(job);
  record.recv_s = seconds_since(origin, Clock::now());
  record.status = record.result.get_string("status", "error");
}

/// Polls status (of the latest mission) and stats until `done`: the
/// operator's ps/top view beside the writes. In the traced pass, a status
/// the front relayed from backend 0 (any status, without a front) is
/// repeated straight to that backend (the forward-hop probe).
void read_loop(Deployment& deployment, bool traced,
               const std::atomic<std::uint64_t>& latest_job,
               const std::atomic<bool>& done, Pass& pass) {
  svc::Client& client = deployment.reader();
  svc::Client* direct = traced ? &deployment.direct() : nullptr;
  Clock::time_point tick = Clock::now();
  while (!done.load(std::memory_order_relaxed)) {
    tick += kReadTick;
    std::this_thread::sleep_until(tick);
    const std::uint64_t job = latest_job.load(std::memory_order_relaxed);
    if (job == 0) continue;  // nothing submitted yet
    ReadSample sample;
    Clock::time_point start = Clock::now();
    const Json status = client.status(job);
    sample.status_us = seconds_since(start, Clock::now()) * 1e6;
    start = Clock::now();
    static_cast<void>(client.stats());
    sample.stats_us = seconds_since(start, Clock::now()) * 1e6;
    pass.reads.push_back(sample);
    const bool from_backend0 =
        !deployment.federated() || (status.get("backend") != nullptr &&
                                    status.get_number("backend", -1) == 0);
    if (direct != nullptr && status.get_bool("ok", false) && from_backend0) {
      start = Clock::now();
      static_cast<void>(direct->status_by_name(status.get_string("name", "")));
      pass.hop_direct_us.push_back(seconds_since(start, Clock::now()) * 1e6);
      pass.hop_front_us.push_back(sample.status_us);
    }
  }
}

/// Open loop: one thread submits on the due schedule and hands each job
/// to a collector, which waits on results in submission order.
void open_loop(Deployment& deployment, const Workload& workload,
               Clock::time_point origin, std::atomic<std::uint64_t>& latest_job,
               Pass& pass) {
  std::vector<JobQueue> queues(workload.mission_connections);
  std::vector<std::thread> collectors;
  for (std::size_t c = 0; c < queues.size(); ++c) {
    collectors.emplace_back([&, c] {
      std::size_t k = 0;
      std::uint64_t job = 0;
      while (queues[c].pop(k, job)) {
        collect_one(deployment.client(c + 1), pass.missions[k], origin, job);
      }
    });
  }
  svc::Client& submitter = deployment.client(0);
  for (std::size_t k = 0; k < pass.missions.size(); ++k) {
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(pass.missions[k].due_s)));
    std::uint64_t job = 0;
    if (submit_one(submitter, pass.missions[k], origin, job)) {
      latest_job.store(job, std::memory_order_relaxed);
      queues[k % queues.size()].push(k, job);
    }
  }
  for (JobQueue& queue : queues) queue.close();
  for (std::thread& t : collectors) t.join();
}

/// Closed loop: each connection submits, waits on the result, and takes
/// the next index, until the deadline.
void closed_loop(Deployment& deployment, const Workload& workload,
                 std::uint64_t seed, double seconds, std::size_t first,
                 Clock::time_point origin,
                 std::atomic<std::uint64_t>& latest_job, Pass& pass) {
  const Clock::time_point deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  std::atomic<std::size_t> next{first};
  std::vector<std::vector<MissionRecord>> per_connection(
      workload.mission_connections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < workload.mission_connections; ++c) {
    threads.emplace_back([&, c] {
      svc::Client& client = deployment.client(c);
      while (Clock::now() < deadline) {
        MissionRecord record;
        record.index = next.fetch_add(1);
        record.spec = mission_spec(workload, seed, record.index);
        std::uint64_t job = 0;
        if (submit_one(client, record, origin, job)) {
          latest_job.store(job, std::memory_order_relaxed);
          collect_one(client, record, origin, job);
        }
        per_connection[c].push_back(std::move(record));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& records : per_connection) {
    for (MissionRecord& record : records) {
      pass.missions.push_back(std::move(record));
    }
  }
  std::sort(pass.missions.begin(), pass.missions.end(),
            [](const MissionRecord& a, const MissionRecord& b) {
              return a.index < b.index;
            });
}

/// One service pass: missions for `seconds` from sequence index `first`,
/// with the reader polling beside them.
Pass run_pass(Deployment& deployment, const Workload& workload,
              std::uint64_t seed, double seconds, std::size_t first,
              bool traced, std::uint64_t schedule_seed) {
  Pass pass;
  pass.stats_before = deployment.reader().stats();
  pass.journal_bytes_before = deployment.journal_bytes();
  if (workload.open_loop) {
    const std::vector<double> due = due_times(workload, schedule_seed, seconds);
    pass.missions.resize(due.size());
    for (std::size_t k = 0; k < due.size(); ++k) {
      pass.missions[k].index = first + k;
      pass.missions[k].spec = mission_spec(workload, seed, first + k);
      pass.missions[k].due_s = due[k];
    }
  }
  std::atomic<std::uint64_t> latest_job{0};
  std::atomic<bool> done{false};
  std::thread reader([&] { read_loop(deployment, traced, latest_job, done, pass); });
  const Clock::time_point origin = Clock::now();
  if (workload.open_loop) {
    open_loop(deployment, workload, origin, latest_job, pass);
  } else {
    closed_loop(deployment, workload, seed, seconds, first, origin, latest_job,
                pass);
  }
  done.store(true);
  reader.join();
  pass.stats_after = deployment.reader().stats();
  pass.journal_bytes_after = deployment.journal_bytes();
  return pass;
}

/// Identity key of a spec without its name (replays of one fingerprint
/// share a standalone reference run).
std::string spec_key(sched::MissionSpec spec) {
  spec.name = "x";
  return sched::spec_to_manifest_line(spec);
}

/// Correctness gate, outside every timed window: each done result must
/// equal sched::run_spec_standalone of its spec in fitness, genotype
/// hash, simulated time and cascade stage hashes. Returns mismatches.
std::size_t check_against_standalone(std::vector<MissionRecord*>& records) {
  std::map<std::string, std::vector<MissionRecord*>> by_spec;
  for (MissionRecord* record : records) {
    if (record->status == "done") by_spec[spec_key(record->spec)].push_back(record);
  }
  std::vector<std::vector<MissionRecord*>*> groups;
  for (auto& entry : by_spec) groups.push_back(&entry.second);
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  const std::size_t workers =
      std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t g = next.fetch_add(1); g < groups.size();
           g = next.fetch_add(1)) {
        const sched::MissionSpec& spec = groups[g]->front()->spec;
        const Json expected = result_identity(svc::outcome_to_json(
            spec.kind, sched::JobStatus::kDone,
            sched::run_spec_standalone(spec)));
        for (MissionRecord* record : *groups[g]) {
          record->identical = result_identity(record->result) == expected;
          if (!record->identical) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return mismatches.load();
}

double number_field(const Json& result, const char* key) {
  const Json* value = result.get(key);
  if (value == nullptr) return 0.0;
  if (value->is_string()) return std::strtod(value->as_string().c_str(), nullptr);
  return value->is_number() ? value->as_number() : 0.0;
}

Json pass_to_json(const Pass& pass) {
  Json missions = Json::array();
  for (const MissionRecord& record : pass.missions) {
    Json row = Json::object();
    row.set("index", static_cast<double>(record.index));
    row.set("kind", sched::kind_name(record.spec.kind));
    row.set("lambda", static_cast<double>(record.spec.lambda));
    if (record.due_s >= 0.0) row.set("due_s", record.due_s);
    row.set("sent_s", record.sent_s);
    row.set("ack_s", record.ack_s);
    row.set("recv_s", record.recv_s);
    row.set("status", record.status);
    row.set("identical", record.identical);
    for (const char* key : {"sim_ns", "pe_writes", "generations", "cache_hits",
                            "cache_misses", "memo_hits", "memo_misses"}) {
      row.set(key, number_field(record.result, key));
    }
    missions.push_back(std::move(row));
  }
  Json reads = Json::array();
  for (const ReadSample& sample : pass.reads) {
    Json row = Json::object();
    row.set("status_us", sample.status_us);
    row.set("stats_us", sample.stats_us);
    reads.push_back(std::move(row));
  }
  Json hop_front = Json::array();
  for (double us : pass.hop_front_us) hop_front.push_back(us);
  Json hop_direct = Json::array();
  for (double us : pass.hop_direct_us) hop_direct.push_back(us);
  Json out = Json::object();
  out.set("missions", std::move(missions));
  out.set("reads", std::move(reads));
  out.set("hop_front_us", std::move(hop_front));
  out.set("hop_direct_us", std::move(hop_direct));
  out.set("stats_before", pass.stats_before);
  out.set("stats_after", pass.stats_after);
  out.set("journal_bytes_before", pass.journal_bytes_before);
  out.set("journal_bytes_after", pass.journal_bytes_after);
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

Json build_info() {
  Json build = Json::object();
  build.set("compiler", std::string("gcc ") + __VERSION__);
  build.set("build_type", MBENCH_BUILD_TYPE);
#ifdef EHW_NATIVE_ARCH
  build.set("native_arch", true);
#else
  build.set("native_arch", false);
#endif
  return build;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--out") {
      args.out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && !args.scratch.empty() &&
         !args.out.empty() && args.seconds > 0.0;
}

int run(const Args& args) {
  const Workload* found = find_workload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& workload = *found;
  const std::vector<sched::MissionSpec> warmup = warmup_specs(workload, args.seed);

  // Set-up, repeated: construction, first backend poll, journal open,
  // connections and the warm-up round, up to the first timed submit.
  Json setup_s = Json::array();
  std::unique_ptr<Deployment> deployment;
  double setup_total_s = 0.0;
  for (int k = 0; k < kMaxSetups; ++k) {
    if (k >= kMinSetups && setup_total_s >= kSetupBudgetSeconds) break;
    const std::string journal =
        (fs::path(args.scratch) / ("journal-" + std::to_string(k))).string();
    deployment.reset();
    const Clock::time_point start = Clock::now();
    deployment = std::make_unique<Deployment>(workload, journal);
    deployment->run_round(warmup);
    const double elapsed = seconds_since(start, Clock::now());
    setup_total_s += elapsed;
    setup_s.push_back(elapsed);
  }

  std::vector<Pass> passes;
  if (args.trace) {
    const double half = args.seconds / 2.0;
    passes.push_back(run_pass(*deployment, workload, args.seed, half, 0, false,
                              ehw::hash_mix(args.seed, 1)));
    const std::size_t next = passes.back().missions.empty()
                                 ? 0
                                 : passes.back().missions.back().index + 1;
    passes.push_back(run_pass(*deployment, workload, args.seed, half, next,
                              true, ehw::hash_mix(args.seed, 2)));
  } else {
    passes.push_back(run_pass(*deployment, workload, args.seed, args.seconds,
                              0, false, ehw::hash_mix(args.seed, 1)));
  }
  const double rss_mb = peak_rss_mb();
  deployment.reset();

  std::vector<MissionRecord*> records;
  for (Pass& pass : passes) {
    for (MissionRecord& record : pass.missions) records.push_back(&record);
  }
  const std::size_t mismatches = check_against_standalone(records);

  Json out = Json::object();
  out.set("open_loop", workload.open_loop);
  out.set("backends", static_cast<double>(workload.backends));
  out.set("sim_prefix", static_cast<double>(workload.sim_prefix));
  out.set("build", build_info());
  out.set("setup_s", std::move(setup_s));
  out.set("rss_mb", rss_mb);
  out.set("gate_mismatches", static_cast<double>(mismatches));

  if (args.trace) {
    std::vector<ReplayItem> items;
    for (const MissionRecord& record : passes.back().missions) {
      if (record.status != "done") continue;
      items.push_back({record.spec, record.index,
                       std::max(0.0, record.due_s), record.result});
    }
    out.set("replay", stack_replay(workload, warmup, items));
  }
  Json pass_rows = Json::array();
  for (const Pass& pass : passes) pass_rows.push_back(pass_to_json(pass));
  out.set("passes", std::move(pass_rows));

  std::ofstream file(args.out);
  file << out.dump() << '\n';
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mbench

int main(int argc, char** argv) {
  mbench::Args args;
  if (!mbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: mission_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR --out FILE\n");
    return 2;
  }
  try {
    return mbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mission_bench: %s\n", e.what());
    return 1;
  }
}
