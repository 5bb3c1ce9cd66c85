#pragma once
// Population-level parallel evaluation: the host analogue of the paper's
// multiple processing arrays. Instead of forking/joining worker threads on
// every image row *inside* each candidate (one barrier per candidate,
// lambda barriers per generation), a whole wave of candidates is fanned
// out with one candidate per worker — like one candidate per physical
// array — and each candidate streams its frame single-threaded through
// the row-vectorized kernel. One fan-out and one join per generation.

#include <atomic>
#include <cstdint>
#include <vector>

#include "ehw/common/thread_pool.hpp"
#include "ehw/common/types.hpp"
#include "ehw/evo/fitness_memo.hpp"
#include "ehw/evo/genotype.hpp"
#include "ehw/evo/offspring.hpp"
#include "ehw/img/image.hpp"
#include "ehw/pe/compiled.hpp"

namespace ehw::evo {

/// Fitness of every candidate in `compiled` against streaming `input`
/// through it and comparing to `reference`, dispatched whole-candidates-
/// per-worker over `pool` (sequential when null). Results are in input
/// order and bit-identical to evaluating each candidate alone. Non-owning
/// pointers are the form the scheduler's compiled-array cache feeds
/// (cached candidates are shared across missions, so the wave must not
/// copy or own them).
[[nodiscard]] std::vector<Fitness> batch_fitness(
    const std::vector<const pe::CompiledArray*>& compiled,
    const img::Image& input, const img::Image& reference,
    ThreadPool* pool = nullptr);

/// Memoized wave: `keys[i]` is the candidate's full memo key — the
/// frame-set id already mixed in (see FitnessMemo) — or 0 for "never
/// memoize this one". Keyed candidates found in `memo` skip evaluation;
/// the rest evaluate as one (smaller) wave and are stored. Results are
/// bit-identical to the unmemoized overload. `stats` (optional)
/// accumulates this wave's hit/miss counts; unkeyed candidates count as
/// misses.
[[nodiscard]] std::vector<Fitness> batch_fitness(
    const std::vector<const pe::CompiledArray*>& compiled,
    const std::vector<std::uint64_t>& keys, FitnessMemo& memo,
    const img::Image& input, const img::Image& reference,
    ThreadPool* pool = nullptr, BatchMemoStats* stats = nullptr);

/// Extrinsic evaluation engine for a fixed train/reference pair. Holds no
/// image copies — both images must outlive the evaluator.
///
/// With a FitnessMemo attached, genotype waves skip BOTH compilation and
/// evaluation of candidates whose (genotype, frame set) was already
/// measured — the frame-set id is computed once here, the per-candidate
/// key is the genotype content hash. Memo-on results are bit-identical to
/// memo-off (asserted by the equivalence suite).
class BatchEvaluator {
 public:
  BatchEvaluator(const img::Image& train, const img::Image& reference,
                 ThreadPool* pool = nullptr, FitnessMemo* memo = nullptr);

  /// Single candidate (e.g. the initial parent): row-parallel inside the
  /// candidate, since there is no population to spread.
  [[nodiscard]] Fitness evaluate_one(const Genotype& genotype) const;

  /// One (1+lambda) offspring wave, candidate-per-worker.
  [[nodiscard]] std::vector<Fitness> evaluate(
      const std::vector<Candidate>& offspring) const;

  /// An arbitrary population of genotypes, candidate-per-worker.
  [[nodiscard]] std::vector<Fitness> evaluate_genotypes(
      const std::vector<Genotype>& population) const;

  [[nodiscard]] ThreadPool* pool() const noexcept { return pool_; }

  /// Accumulated memo traffic of this evaluator (both zero when no memo
  /// is attached).
  [[nodiscard]] BatchMemoStats memo_stats() const noexcept {
    return {memo_hits_.load(std::memory_order_relaxed),
            memo_misses_.load(std::memory_order_relaxed)};
  }

 private:
  template <typename GenotypeAt>
  [[nodiscard]] std::vector<Fitness> memoized_wave(
      std::size_t count, const GenotypeAt& genotype_at) const;

  const img::Image* train_;
  const img::Image* reference_;
  ThreadPool* pool_;
  FitnessMemo* memo_;
  std::uint64_t frame_set_id_ = 0;  // nonzero iff memo_ != nullptr
  mutable std::atomic<std::uint64_t> memo_hits_{0};
  mutable std::atomic<std::uint64_t> memo_misses_{0};
};

/// Memo key of an extrinsic (genotype-only, defect-free) candidate on a
/// frame set. The tag keeps the extrinsic key domain disjoint from the
/// intrinsic configuration-fingerprint domain.
[[nodiscard]] std::uint64_t extrinsic_memo_key(std::uint64_t frame_set_id,
                                               const Genotype& genotype);

/// Content identity of an (input, reference) evaluation pair — the
/// frame-set half of every memo key. Never returns 0 (0 is the "no key"
/// sentinel). Scans each frame's pixels only the first time: an image
/// keeps its content hash until it is changed (img::Image), so calling
/// this per wave on the same frames is O(1).
[[nodiscard]] std::uint64_t frame_set_id(const img::Image& input,
                                         const img::Image& reference);

}  // namespace ehw::evo
