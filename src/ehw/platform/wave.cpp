#include "ehw/platform/wave.hpp"

#include <algorithm>

#include "ehw/common/rng.hpp"
#include "ehw/evo/batch.hpp"
#include "ehw/obs/trace.hpp"

namespace ehw::platform {

WaveOutcome evaluate_offspring_wave(EvolvablePlatform& platform,
                                    const std::vector<evo::Candidate>& offspring,
                                    const std::vector<std::size_t>& lanes,
                                    const img::Image& input,
                                    const img::Image& compare,
                                    sim::SimTime barrier,
                                    const WaveCompileFn& compile,
                                    WaveMemo* memo) {
  EHW_REQUIRE(lanes.size() == offspring.size(),
              "one evaluation lane per offspring");

  // Phase 1 (sequential): configure each candidate, compile its decoded
  // view before the next configuration overwrites the lane, and book the
  // R/F spans — identical timeline bookkeeping to evaluating in place.
  std::vector<CompiledLane> compiled;
  compiled.reserve(offspring.size());
  std::vector<sim::Interval> spans(offspring.size());
  for (std::size_t i = 0; i < offspring.size(); ++i) {
    // R: engine + lane array; no earlier than the generation barrier.
    const sim::Interval conf =
        platform.configure_array(lanes[i], offspring[i].genotype, barrier);
    compiled.push_back(compile(lanes[i]));
    // F: lane array only, after its reconfiguration.
    spans[i] = platform.book_evaluation(lanes[i], input.width(),
                                        input.height(), conf.end, "F");
  }

  // Phase 2 (parallel): whole candidates fan out across the host pool —
  // one candidate per worker, like one per physical array. With a memo
  // attached, candidates already measured on this frame set skip the
  // fan-out entirely (their simulated R/F spans above are booked either
  // way — memoization is a host-speed optimization, never a simulated
  // one).
  std::vector<const pe::CompiledArray*> views;
  views.reserve(compiled.size());
  for (const auto& c : compiled) views.push_back(c.array.get());
  EHW_TRACE_SPAN("wave_eval");
  WaveOutcome outcome;
  if (memo != nullptr && memo->memo != nullptr && memo->frame_set_id != 0) {
    std::vector<std::uint64_t> keys(compiled.size(), 0);
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      if (compiled[i].memo_key != 0) {
        keys[i] = hash_mix(memo->frame_set_id, compiled[i].memo_key);
      }
    }
    outcome.fitness =
        evo::batch_fitness(views, keys, *memo->memo, input, compare,
                           platform.pool(), &memo->stats);
  } else {
    if (memo != nullptr) memo->stats.misses += views.size();
    outcome.fitness =
        evo::batch_fitness(views, input, compare, platform.pool());
  }

  // Phase 3 (sequential): publish fitnesses in evaluation order and
  // select the survivor.
  outcome.end = barrier;
  for (std::size_t i = 0; i < offspring.size(); ++i) {
    platform.publish_fitness(lanes[i], outcome.fitness[i]);
    outcome.end = std::max(outcome.end, spans[i].end);
    if (outcome.fitness[i] < outcome.best_fitness) {
      outcome.best_fitness = outcome.fitness[i];
      outcome.best_index = i;
    }
  }
  return outcome;
}

WaveOutcome evaluate_offspring_wave(EvolvablePlatform& platform,
                                    const std::vector<evo::Candidate>& offspring,
                                    const std::vector<std::size_t>& lanes,
                                    const img::Image& input,
                                    const img::Image& compare,
                                    sim::SimTime barrier) {
  return evaluate_offspring_wave(
      platform, offspring, lanes, input, compare, barrier,
      [&platform](std::size_t lane) {
        return CompiledLane{std::make_shared<const pe::CompiledArray>(
                                platform.compile_array(lane)),
                            0};
      });
}

}  // namespace ehw::platform
