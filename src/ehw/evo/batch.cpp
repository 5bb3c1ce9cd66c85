#include "ehw/evo/batch.hpp"

#include "ehw/common/rng.hpp"

namespace ehw::evo {
namespace {

/// Shared fan-out: fitness_of(i) runs single-threaded inside a worker
/// chunk (for genotype waves it also compiles the phenotype there, so
/// construction overlaps across candidates too).
template <typename FitnessOf>
std::vector<Fitness> run_wave(std::size_t count, ThreadPool* pool,
                              const FitnessOf& fitness_of) {
  std::vector<Fitness> fits(count, kInvalidFitness);
  const auto chunk = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fits[i] = fitness_of(i);
  };
  if (pool != nullptr && count > 1) {
    pool->parallel_chunks(0, count, chunk);
  } else {
    chunk(0, count);
  }
  return fits;
}

/// fitness_of(i) for a wave of genotypes produced by genotype_at(i).
template <typename GenotypeAt>
std::vector<Fitness> run_genotype_wave(std::size_t count,
                                       const img::Image& input,
                                       const img::Image& reference,
                                       ThreadPool* pool,
                                       const GenotypeAt& genotype_at) {
  return run_wave(count, pool, [&](std::size_t i) {
    const pe::CompiledArray compiled(genotype_at(i).to_array());
    return compiled.fitness_against(input, reference, nullptr);
  });
}

}  // namespace

std::vector<Fitness> batch_fitness(
    const std::vector<const pe::CompiledArray*>& compiled,
    const img::Image& input, const img::Image& reference, ThreadPool* pool) {
  return run_wave(compiled.size(), pool, [&](std::size_t i) {
    return compiled[i]->fitness_against(input, reference, nullptr);
  });
}

std::vector<Fitness> batch_fitness(
    const std::vector<const pe::CompiledArray*>& compiled,
    const std::vector<std::uint64_t>& keys, FitnessMemo& memo,
    const img::Image& input, const img::Image& reference, ThreadPool* pool,
    BatchMemoStats* stats) {
  EHW_REQUIRE(keys.size() == compiled.size(), "one memo key per candidate");
  // Probe the memo first, then run the survivors as one smaller wave.
  std::vector<Fitness> fits(compiled.size(), kInvalidFitness);
  std::vector<std::size_t> miss;
  miss.reserve(compiled.size());
  for (std::size_t i = 0; i < compiled.size(); ++i) {
    if (keys[i] == 0 || !memo.lookup(keys[i], &fits[i])) {
      miss.push_back(i);
    }
  }
  if (stats != nullptr) {
    stats->hits += compiled.size() - miss.size();
    stats->misses += miss.size();
  }
  if (miss.empty()) return fits;

  std::vector<const pe::CompiledArray*> views(miss.size());
  for (std::size_t j = 0; j < miss.size(); ++j) views[j] = compiled[miss[j]];
  const std::vector<Fitness> evaluated =
      batch_fitness(views, input, reference, pool);
  for (std::size_t j = 0; j < miss.size(); ++j) {
    fits[miss[j]] = evaluated[j];
    if (keys[miss[j]] != 0) memo.store(keys[miss[j]], evaluated[j]);
  }
  return fits;
}

std::uint64_t extrinsic_memo_key(std::uint64_t frame_set_id,
                                 const Genotype& genotype) {
  // Domain tag keeps extrinsic keys off the intrinsic fingerprint space.
  return hash_mix(frame_set_id, 0xE87A11C0DE000001ULL, genotype.hash());
}

std::uint64_t frame_set_id(const img::Image& input,
                           const img::Image& reference) {
  const std::uint64_t id =
      hash_mix(input.content_hash(), reference.content_hash());
  return id == 0 ? 1 : id;  // 0 is reserved for "no key"
}

BatchEvaluator::BatchEvaluator(const img::Image& train,
                               const img::Image& reference, ThreadPool* pool,
                               FitnessMemo* memo)
    : train_(&train), reference_(&reference), pool_(pool), memo_(memo) {
  EHW_REQUIRE(train.same_shape(reference), "train/reference shape mismatch");
  if (memo_ != nullptr) frame_set_id_ = frame_set_id(train, reference);
}

template <typename GenotypeAt>
std::vector<Fitness> BatchEvaluator::memoized_wave(
    std::size_t count, const GenotypeAt& genotype_at) const {
  if (memo_ == nullptr) {
    memo_misses_.fetch_add(count, std::memory_order_relaxed);
    return run_genotype_wave(count, *train_, *reference_, pool_, genotype_at);
  }
  // Memo hits skip compilation too, so probe before the wave compiles
  // anything: genotype hashing is orders of magnitude cheaper than
  // phenotype construction plus frame streaming.
  std::vector<Fitness> fits(count, kInvalidFitness);
  std::vector<std::size_t> miss;
  miss.reserve(count);
  std::vector<std::uint64_t> miss_keys;
  miss_keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t key =
        extrinsic_memo_key(frame_set_id_, genotype_at(i));
    if (!memo_->lookup(key, &fits[i])) {
      miss.push_back(i);
      miss_keys.push_back(key);
    }
  }
  memo_hits_.fetch_add(count - miss.size(), std::memory_order_relaxed);
  memo_misses_.fetch_add(miss.size(), std::memory_order_relaxed);
  if (miss.empty()) return fits;

  const std::vector<Fitness> evaluated = run_genotype_wave(
      miss.size(), *train_, *reference_, pool_,
      [&](std::size_t j) -> const Genotype& { return genotype_at(miss[j]); });
  for (std::size_t j = 0; j < miss.size(); ++j) {
    fits[miss[j]] = evaluated[j];
    memo_->store(miss_keys[j], evaluated[j]);
  }
  return fits;
}

Fitness BatchEvaluator::evaluate_one(const Genotype& genotype) const {
  if (memo_ != nullptr) {
    const std::uint64_t key = extrinsic_memo_key(frame_set_id_, genotype);
    Fitness memoized = kInvalidFitness;
    if (memo_->lookup(key, &memoized)) {
      memo_hits_.fetch_add(1, std::memory_order_relaxed);
      return memoized;
    }
    memo_misses_.fetch_add(1, std::memory_order_relaxed);
    const pe::CompiledArray compiled(genotype.to_array());
    const Fitness fitness =
        compiled.fitness_against(*train_, *reference_, pool_);
    memo_->store(key, fitness);
    return fitness;
  }
  memo_misses_.fetch_add(1, std::memory_order_relaxed);
  const pe::CompiledArray compiled(genotype.to_array());
  return compiled.fitness_against(*train_, *reference_, pool_);
}

std::vector<Fitness> BatchEvaluator::evaluate(
    const std::vector<Candidate>& offspring) const {
  return memoized_wave(offspring.size(),
                       [&](std::size_t i) -> const Genotype& {
                         return offspring[i].genotype;
                       });
}

std::vector<Fitness> BatchEvaluator::evaluate_genotypes(
    const std::vector<Genotype>& population) const {
  return memoized_wave(population.size(),
                       [&](std::size_t i) -> const Genotype& {
                         return population[i];
                       });
}

}  // namespace ehw::evo
