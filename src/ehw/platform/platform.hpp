#pragma once
// EvolvablePlatform — the SoPC of Fig. 2: a stack of ACB+array modules on
// a virtual reconfigurable fabric, one shared reconfiguration engine, the
// self-addressed register file, and the simulated-time model.
//
// Responsibilities:
//   * intrinsic candidate configuration: DPR-diff a genotype against what
//     is currently configured on an array and write only changed PEs
//     (67.53 us each, serialized on the single engine);
//   * intrinsic evaluation: decode the array FROM CONFIGURATION MEMORY
//     (so injected faults perturb behaviour), stream an image through it,
//     measure aggregated MAE in the ACB's fitness unit, and charge the
//     streaming time on the array's timeline resource;
//   * mission-time processing in the four modes of §IV.A (independent,
//     parallel, cascaded, bypass);
//   * fault injection (dummy-PE / SEU / LPD) and scrubbing.

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "ehw/common/thread_pool.hpp"
#include "ehw/evo/genotype.hpp"
#include "ehw/fpga/config_memory.hpp"
#include "ehw/fpga/fault.hpp"
#include "ehw/fpga/geometry.hpp"
#include "ehw/img/image.hpp"
#include "ehw/pe/compiled.hpp"
#include "ehw/platform/acb.hpp"
#include "ehw/platform/registers.hpp"
#include "ehw/reconfig/engine.hpp"
#include "ehw/sim/timeline.hpp"
#include "ehw/sim/trace.hpp"

namespace ehw::platform {

struct PlatformConfig {
  std::size_t num_arrays = 3;
  fpga::ArrayShape shape{4, 4};
  /// Pixel/ICAP nominal clock (paper: 100 MHz).
  double clock_mhz = 100.0;
  /// Width of the images the line FIFOs are sized for.
  std::size_t line_width = 128;
  std::uint64_t seed = 0x13572468ACE02468ULL;
  /// Record R/F/S intervals for Gantt rendering (small runs only).
  bool enable_trace = false;
  /// Host thread pool for image streaming; nullptr = sequential.
  ThreadPool* pool = nullptr;
};

struct EvaluationResult {
  Fitness fitness = kInvalidFitness;
  sim::Interval span;  // occupancy of the array's datapath
};

class EvolvablePlatform {
 public:
  explicit EvolvablePlatform(PlatformConfig config);

  // Non-copyable: owns fabric state and timeline identities.
  EvolvablePlatform(const EvolvablePlatform&) = delete;
  EvolvablePlatform& operator=(const EvolvablePlatform&) = delete;

  [[nodiscard]] const PlatformConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::size_t num_arrays() const noexcept {
    return config_.num_arrays;
  }
  [[nodiscard]] const fpga::FabricGeometry& geometry() const noexcept {
    return geometry_;
  }

  /// --- the MicroBlaze bus --------------------------------------------------
  [[nodiscard]] RegValue reg_read(RegAddr addr) const {
    return regs_.read(addr);
  }
  void reg_write(RegAddr addr, RegValue value) { regs_.write(addr, value); }
  [[nodiscard]] ArrayControlBlock& acb(std::size_t array);
  [[nodiscard]] const ArrayControlBlock& acb(std::size_t array) const;

  /// --- intrinsic configuration ---------------------------------------------
  /// Writes `genotype` onto array `array`: mux/output genes go to ACB
  /// registers (software-speed, not charged), changed function genes go
  /// through the reconfiguration engine (kPeReconfigTime each, engine +
  /// array booked, starting no earlier than `earliest`). Returns the span
  /// covering all

  /// DPR writes (zero-length at `earliest` when nothing changed).
  sim::Interval configure_array(std::size_t array,
                                const evo::Genotype& genotype,
                                sim::SimTime earliest = 0);

  /// The genotype most recently configured on the array (nullopt before
  /// the first configure_array call).
  [[nodiscard]] const std::optional<evo::Genotype>& configured_genotype(
      std::size_t array) const;

  /// --- intrinsic evaluation / processing ----------------------------------
  /// Decodes the array from configuration memory (faults included) with
  /// the ACB's current mux registers and filters `input` through it.
  /// Functional only — no time charged.
  [[nodiscard]] img::Image filter_array(std::size_t array,
                                        const img::Image& input) const;

  /// Streams `input` through the array and measures aggregated MAE of the
  /// output against `compare` in the ACB fitness unit. Publishes the value
  /// to the RO registers and charges streaming time on the array resource.
  EvaluationResult evaluate_array(std::size_t array, const img::Image& input,
                                  const img::Image& compare,
                                  sim::SimTime earliest = 0,
                                  const std::string& trace_label = "F");

  /// The three phases of evaluate_array split out so evolution drivers can
  /// overlap the host-side fitness computation of a whole candidate wave
  /// (evo::batch_fitness) while keeping the per-candidate simulated-time
  /// bookkeeping byte-identical to sequential evaluate_array calls:
  ///   compile_array    — host-compiled view of the array as currently
  ///                      configured (decoded from configuration memory,
  ///                      faults included);
  ///   book_evaluation  — charges the frame-streaming span on the array's
  ///                      timeline resource and records the trace box;
  ///   publish_fitness  — latches a fitness value into the ACB's RO
  ///                      registers (what the MicroBlaze would read back).
  [[nodiscard]] pe::CompiledArray compile_array(std::size_t array) const;

  /// Stable content hash of everything compile_array(array) observes: the
  /// array's *actual* configuration-memory words (the genotype as
  /// materialized through the engine, plus any SEU/LPD/dummy-PE damage —
  /// the defect map), the ACB tap/output registers, the fabric shape and
  /// the array index (defective-cell seeds are position-dependent). Equal
  /// fingerprints — on this platform or any platform with the same shape
  /// and layout — decode to behaviourally identical circuits, which makes
  /// this the scheduler's compiled-array cache key.
  ///
  /// O(1): config_memory() keeps a running hash of each array's words,
  /// updated by every write path (DPR writes, dummy-PE locks, SEU/LPD
  /// injection, scrub rewrites, ECC corrections), and this mixes it with
  /// the registers, shape and index instead of scanning the words. Debug
  /// builds check the running hash against a full scan on every call.
  /// The values differ from those of builds that scanned the words, so
  /// keys such builds persisted never match.
  [[nodiscard]] std::uint64_t configuration_fingerprint(
      std::size_t array) const;
  sim::Interval book_evaluation(std::size_t array, std::size_t width,
                                std::size_t height, sim::SimTime earliest,
                                const std::string& trace_label = "F");
  void publish_fitness(std::size_t array, Fitness fitness);

  /// --- mission-time processing modes (§IV.A) -------------------------------
  /// Independent: each array processes its own input.
  [[nodiscard]] img::Image process_independent(std::size_t array,
                                               const img::Image& input) const {
    return filter_array(array, input);
  }

  /// Parallel: every array processes the same input (TMR substrate).
  [[nodiscard]] std::vector<img::Image> process_parallel(
      const img::Image& input) const;

  /// Cascaded: ACB order defines the chain; a bypassed stage forwards its
  /// input downstream unchanged (while its array still *sees* the stream —
  /// the hook evolution-by-imitation relies on). Returns the chain output;
  /// optionally all stage outputs (stage_outputs[i] = what stage i passed
  /// downstream) and the bypassed arrays' own outputs.
  [[nodiscard]] img::Image process_cascade(
      const img::Image& input,
      std::vector<img::Image>* stage_outputs = nullptr) const;

  /// Cascade variant for callers that only need the per-stage outputs
  /// (the chain output is always stage_outputs.back()).
  void process_cascade_into(const img::Image& input,
                            std::vector<img::Image>& stage_outputs) const {
    static_cast<void>(process_cascade(input, &stage_outputs));
  }

  /// Total cascade latency in cycles (array latencies + FIFO fills) for
  /// the latency-compensation report.
  [[nodiscard]] std::uint64_t cascade_latency_cycles() const;

  /// --- faults & scrubbing ---------------------------------------------------
  /// Paper's PE-level fault model: writes the dummy PBS into the slot and
  /// locks it (subsequent reconfiguration writes keep producing the dummy,
  /// making the damage permanent until clear_pe_fault).
  void inject_pe_fault(std::size_t array, std::size_t row, std::size_t col);
  void clear_pe_fault(std::size_t array, std::size_t row, std::size_t col);
  [[nodiscard]] bool has_pe_fault(std::size_t array, std::size_t row,
                                  std::size_t col) const;

  /// Transient fault: flips one random configuration bit in the array.
  fpga::FaultRecord inject_seu(std::size_t array);
  /// Permanent fault: random stuck-at bit in the array.
  fpga::FaultRecord inject_lpd(std::size_t array);

  /// Scrubs every slot of the array through the engine; returns the number
  /// of corrected and uncorrectable words and the time span.
  sim::Interval scrub_array(std::size_t array, sim::SimTime earliest,
                            std::size_t* corrected = nullptr,
                            std::size_t* uncorrectable = nullptr);

  /// --- time & instrumentation ----------------------------------------------
  [[nodiscard]] sim::SimTime now() const noexcept {
    return timeline_.makespan();
  }
  void reset_time();
  [[nodiscard]] const reconfig::EngineStats& engine_stats() const noexcept {
    return engine_->stats();
  }
  [[nodiscard]] sim::Trace& trace() noexcept { return trace_; }
  [[nodiscard]] const sim::Timeline& timeline() const noexcept {
    return timeline_;
  }
  [[nodiscard]] sim::ResourceId array_resource(std::size_t array) const;
  [[nodiscard]] fpga::ConfigMemory& config_memory() noexcept {
    return memory_;
  }
  [[nodiscard]] reconfig::ReconfigurationEngine& engine() noexcept {
    return *engine_;
  }
  [[nodiscard]] ThreadPool* pool() const noexcept { return config_.pool; }

  /// Decoded behavioural view of the array (fabric + ACB registers).
  [[nodiscard]] pe::SystolicArray decode_array(std::size_t array) const;

  /// Evaluation duration of a w x h frame on one array.
  [[nodiscard]] sim::SimTime frame_time(std::size_t width,
                                        std::size_t height) const;

 private:
  void check_array(std::size_t array) const {
    EHW_REQUIRE(array < config_.num_arrays, "array index out of range");
  }
  [[nodiscard]] std::uint8_t effective_opcode(std::size_t slot_index,
                                              std::uint8_t wanted) const;

  PlatformConfig config_;
  fpga::FabricGeometry geometry_;
  fpga::ConfigMemory memory_;
  reconfig::PbsLibrary library_;
  sim::Timeline timeline_;
  sim::Trace trace_;
  std::unique_ptr<reconfig::ReconfigurationEngine> engine_;
  fpga::FaultInjector injector_;
  RegisterFile regs_;
  std::vector<ArrayControlBlock> acbs_;
  std::vector<sim::ResourceId> array_resources_;
  std::vector<std::optional<evo::Genotype>> configured_;
  std::set<std::size_t> locked_slots_;  // dummy-PE (permanent) fault sites
};

}  // namespace ehw::platform
