// Multi-mission scheduling: four heterogeneous workloads — parallel
// denoise, edge detection, morphology and a collaborative cascade — share
// one 8-array pool instead of each owning a platform. The ArrayPool
// partitions arrays between concurrently running jobs, serves identical
// candidates from the shared compiled-array cache, and reports the
// cluster-level simulated schedule; every mission's result is
// bit-identical to running it alone (asserted here against the standalone
// driver path).
//
//   $ ./multi_mission [--arrays=8] [--generations=150] [--size=32]

#include <cstdio>

#include "ehw/common/cli.hpp"
#include "ehw/sched/array_pool.hpp"
#include "ehw/sched/missions.hpp"

using namespace ehw;

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  const auto arrays = static_cast<std::size_t>(cli.get_int("arrays", 8));
  const auto generations =
      static_cast<Generation>(cli.get_int("generations", 150));
  const auto size = static_cast<std::size_t>(cli.get_int("size", 32));

  // Four missions wanting 8 lanes in total: with 8 arrays they all run
  // concurrently; with fewer the scheduler queues and backfills.
  std::vector<sched::MissionSpec> specs(4);
  specs[0].kind = sched::MissionKind::kDenoise;
  specs[0].name = "denoise";
  specs[0].lanes = 3;
  specs[0].noise = 0.3;
  specs[0].seed = 5;
  specs[1].kind = sched::MissionKind::kEdge;
  specs[1].name = "edges";
  specs[1].lanes = 2;
  specs[1].seed = 7;
  specs[2].kind = sched::MissionKind::kMorphology;
  specs[2].name = "dilate";
  specs[2].lanes = 1;
  specs[2].seed = 9;
  specs[3].kind = sched::MissionKind::kCascade;
  specs[3].name = "cascade";
  specs[3].lanes = 2;
  specs[3].noise = 0.2;
  specs[3].seed = 11;
  for (sched::MissionSpec& spec : specs) {
    spec.generations = generations;
    spec.size = size;
  }
  specs[3].generations = generations / 4;  // cascade budget is per stage

  ThreadPool host_pool;
  sched::PoolConfig pool_config;
  pool_config.num_arrays = arrays;
  pool_config.host_pool = &host_pool;
  sched::ArrayPool pool(pool_config);

  std::vector<std::shared_ptr<sched::MissionRunner>> runners;
  for (const sched::MissionSpec& spec : specs) {
    runners.push_back(pool.submit(sched::make_job_config(spec),
                                  sched::make_job_body(spec)));
  }
  pool.wait_all();
  const sched::ArrayPool::ScheduleReport schedule = pool.simulated_schedule();

  std::printf("%-8s %-10s %5s %12s %10s %14s %9s\n", "job", "kind", "lanes",
              "fitness", "sim s", "pool window s", "cache hit");
  bool all_identical = true;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const sched::JobOutcome& outcome = runners[i]->result();
    const bool cascade = specs[i].kind == sched::MissionKind::kCascade;
    const Fitness fitness = cascade ? outcome.cascade.chain_fitness
                                    : outcome.intrinsic.es.best_fitness;
    std::printf("%-8s %-10s %5zu %12llu %10.3f %6.3f-%6.3f %8.1f%%\n",
                specs[i].name.c_str(), sched::kind_name(specs[i].kind),
                specs[i].lanes, static_cast<unsigned long long>(fitness),
                sim::to_seconds(outcome.stats.mission_time),
                sim::to_seconds(schedule.jobs[i].start),
                sim::to_seconds(schedule.jobs[i].end),
                100.0 * outcome.stats.cache_hit_rate());

    // The scheduler's contract: multiplexing never changes results.
    const sched::JobOutcome alone =
        sched::run_spec_standalone(specs[i], &host_pool);
    const bool identical =
        cascade ? alone.cascade.chain_fitness == outcome.cascade.chain_fitness
                : alone.intrinsic.es.best == outcome.intrinsic.es.best &&
                      alone.intrinsic.duration == outcome.intrinsic.duration;
    all_identical = all_identical && identical;
  }

  const LruStats cache = pool.cache_stats();
  std::printf(
      "\npool of %zu arrays: simulated makespan %.3f s vs %.3f s serialized "
      "(%.2fx, %.2f missions/sim-s)\n"
      "compiled-array cache: %llu hits / %llu misses (%.1f%%)\n"
      "multiplexed results bit-identical to standalone runs: %s\n",
      pool.num_arrays(), sim::to_seconds(schedule.makespan),
      sim::to_seconds(schedule.serialized), schedule.speedup(),
      schedule.missions_per_sim_second(),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses), 100.0 * cache.hit_rate(),
      all_identical ? "yes" : "NO");
  return all_identical ? 0 : 1;
} catch (const std::exception& e) {
  // e.g. --arrays smaller than the widest mission's lane demand.
  std::fprintf(stderr, "multi_mission: %s\n", e.what());
  return 1;
}
