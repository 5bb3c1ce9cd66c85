#include "ehw/platform/platform.hpp"

#include <string>

#include "ehw/pe/decoder.hpp"

namespace ehw::platform {

EvolvablePlatform::EvolvablePlatform(PlatformConfig config)
    : config_(config),
      geometry_(config.num_arrays, config.shape),
      memory_(geometry_.total_words(),
              geometry_.slots_per_array() * geometry_.words_per_slot()),
      library_(geometry_.words_per_slot()),
      injector_(memory_, geometry_, config.seed ^ 0xFA017EC7ULL),
      regs_(config.num_arrays) {
  EHW_REQUIRE(config_.num_arrays > 0, "platform needs at least one array");
  trace_.enable(config_.enable_trace);
  engine_ = std::make_unique<reconfig::ReconfigurationEngine>(
      memory_, geometry_, library_, timeline_, &trace_);
  acbs_.reserve(config_.num_arrays);
  array_resources_.reserve(config_.num_arrays);
  configured_.resize(config_.num_arrays);
  for (std::size_t a = 0; a < config_.num_arrays; ++a) {
    acbs_.emplace_back(regs_, a, config_.shape.rows + config_.shape.cols,
                       config_.shape.rows, config_.line_width,
                       config_.clock_mhz);
    array_resources_.push_back(
        timeline_.add_resource("array" + std::to_string(a)));
  }
  // Power-on state: every slot holds function 0 so decode is well-defined
  // before the first evolution pass.
  for (std::size_t a = 0; a < config_.num_arrays; ++a) {
    for (std::size_t r = 0; r < config_.shape.rows; ++r) {
      for (std::size_t c = 0; c < config_.shape.cols; ++c) {
        fpga::write_payload(memory_,
                            geometry_.slot_word_base({a, r, c}),
                            library_.function(0));
      }
    }
  }
  timeline_.reset();  // power-on configuration is not charged
}

ArrayControlBlock& EvolvablePlatform::acb(std::size_t array) {
  check_array(array);
  return acbs_[array];
}

const ArrayControlBlock& EvolvablePlatform::acb(std::size_t array) const {
  check_array(array);
  return acbs_[array];
}

sim::ResourceId EvolvablePlatform::array_resource(std::size_t array) const {
  check_array(array);
  return array_resources_[array];
}

std::uint8_t EvolvablePlatform::effective_opcode(std::size_t slot_index,
                                                 std::uint8_t wanted) const {
  return locked_slots_.count(slot_index) ? reconfig::kDummyOpcode : wanted;
}

sim::Interval EvolvablePlatform::configure_array(std::size_t array,
                                                 const evo::Genotype& genotype,
                                                 sim::SimTime earliest) {
  check_array(array);
  EHW_REQUIRE(genotype.shape() == config_.shape,
              "genotype shape must match the fabric arrays");

  // Register-resident genes: software-speed writes over the bus.
  acbs_[array].set_input_taps(genotype.tap_genes());
  acbs_[array].set_output_row(genotype.output_row());

  // Fabric-resident genes: DPR only for cells whose function changed with
  // respect to what this array currently holds.
  const std::optional<evo::Genotype>& current = configured_[array];
  sim::Interval overall{earliest, earliest};
  bool first_write = true;
  const std::size_t cols = config_.shape.cols;
  for (std::size_t cell = 0; cell < genotype.cell_count(); ++cell) {
    const std::uint8_t wanted = genotype.function_gene(cell);
    if (current.has_value() && current->function_gene(cell) == wanted) {
      continue;
    }
    const fpga::SlotAddress slot{array, cell / cols, cell % cols};
    const std::size_t slot_index = geometry_.slot_index(slot);
    const sim::Interval span = engine_->write_pe(
        slot, effective_opcode(slot_index, wanted), earliest,
        array_resources_[array], "R");
    if (first_write) {
      overall = span;
      first_write = false;
    } else {
      overall.end = span.end;
    }
  }
  configured_[array] = genotype;
  acbs_[array].publish_latency(
      static_cast<std::uint32_t>(cols + genotype.output_row() + 1));
  return overall;
}

const std::optional<evo::Genotype>& EvolvablePlatform::configured_genotype(
    std::size_t array) const {
  check_array(array);
  return configured_[array];
}

pe::SystolicArray EvolvablePlatform::decode_array(std::size_t array) const {
  check_array(array);
  return pe::decode_array(memory_, geometry_, library_, array,
                          acbs_[array].input_taps(),
                          acbs_[array].output_row());
}

img::Image EvolvablePlatform::filter_array(std::size_t array,
                                           const img::Image& input) const {
  const pe::CompiledArray compiled(decode_array(array));
  img::Image out(input.width(), input.height());
  compiled.filter_into(input, out, config_.pool);
  return out;
}

sim::SimTime EvolvablePlatform::frame_time(std::size_t width,
                                           std::size_t height) const {
  // One pixel per cycle plus the array pipeline depth and the fitness
  // accumulator drain.
  const std::uint64_t cycles =
      static_cast<std::uint64_t>(width) * height + config_.shape.cols +
      config_.shape.rows + 4;
  return sim::cycles_at_mhz(cycles, config_.clock_mhz);
}

pe::CompiledArray EvolvablePlatform::compile_array(std::size_t array) const {
  return pe::CompiledArray(decode_array(array));
}

std::uint64_t EvolvablePlatform::configuration_fingerprint(
    std::size_t array) const {
  check_array(array);
  // One memory hash block per array (see the constructor); the memory
  // keeps its hash current on every write, so nothing is scanned here.
  const std::uint64_t content = memory_.content_hash(array);
  EHW_ASSERT(content == memory_.scan_content_hash(array),
             "running configuration hash diverged from a full scan");
  // At most 8 taps (one register each), every one below 9: a byte each.
  std::uint64_t taps = 0;
  for (const std::uint8_t tap : acbs_[array].input_taps()) {
    taps = taps << 8 | tap;
  }
  return hash_mix(
      hash_mix(0x5C4DF00DULL, array, config_.shape.rows, config_.shape.cols),
      content, taps, acbs_[array].output_row());
}

sim::Interval EvolvablePlatform::book_evaluation(
    std::size_t array, std::size_t width, std::size_t height,
    sim::SimTime earliest, const std::string& trace_label) {
  check_array(array);
  const sim::Interval span = timeline_.reserve(
      array_resources_[array], earliest, frame_time(width, height));
  trace_.record(array_resources_[array], trace_label, span);
  return span;
}

void EvolvablePlatform::publish_fitness(std::size_t array, Fitness fitness) {
  check_array(array);
  acbs_[array].publish_fitness(fitness);
}

EvaluationResult EvolvablePlatform::evaluate_array(
    std::size_t array, const img::Image& input, const img::Image& compare,
    sim::SimTime earliest, const std::string& trace_label) {
  check_array(array);
  EHW_REQUIRE(input.same_shape(compare),
              "fitness streams must share a shape");
  const pe::CompiledArray compiled = compile_array(array);
  const Fitness fitness =
      compiled.fitness_against(input, compare, config_.pool);
  publish_fitness(array, fitness);
  const sim::Interval span = book_evaluation(
      array, input.width(), input.height(), earliest, trace_label);
  return EvaluationResult{fitness, span};
}

std::vector<img::Image> EvolvablePlatform::process_parallel(
    const img::Image& input) const {
  std::vector<img::Image> outputs;
  outputs.reserve(config_.num_arrays);
  for (std::size_t a = 0; a < config_.num_arrays; ++a) {
    outputs.push_back(filter_array(a, input));
  }
  return outputs;
}

img::Image EvolvablePlatform::process_cascade(
    const img::Image& input, std::vector<img::Image>* stage_outputs) const {
  img::Image stream = input;
  if (stage_outputs != nullptr) stage_outputs->clear();
  for (std::size_t a = 0; a < config_.num_arrays; ++a) {
    if (!acbs_[a].bypass()) {
      stream = filter_array(a, stream);
    }
    // A bypassed stage forwards `stream` unchanged; its array still sees
    // the stream (imitation hooks read it via filter_array directly).
    if (stage_outputs != nullptr) stage_outputs->push_back(stream);
  }
  return stream;
}

std::uint64_t EvolvablePlatform::cascade_latency_cycles() const {
  std::uint64_t cycles = 0;
  for (std::size_t a = 0; a < config_.num_arrays; ++a) {
    if (acbs_[a].bypass()) continue;
    cycles += acbs_[a].line_fifo().fill_cycles();
    cycles += config_.shape.cols + acbs_[a].output_row() + 1;
  }
  return cycles;
}

void EvolvablePlatform::inject_pe_fault(std::size_t array, std::size_t row,
                                        std::size_t col) {
  check_array(array);
  const fpga::SlotAddress slot{array, row, col};
  locked_slots_.insert(geometry_.slot_index(slot));
  engine_->write_pe(slot, reconfig::kDummyOpcode, timeline_.makespan(),
                    array_resources_[array], "X");
}

void EvolvablePlatform::clear_pe_fault(std::size_t array, std::size_t row,
                                       std::size_t col) {
  check_array(array);
  const fpga::SlotAddress slot{array, row, col};
  locked_slots_.erase(geometry_.slot_index(slot));
  // Restore the intended function if one is configured.
  if (configured_[array].has_value()) {
    const std::size_t cell = row * config_.shape.cols + col;
    engine_->write_pe(slot, configured_[array]->function_gene(cell),
                      timeline_.makespan(), array_resources_[array], "R");
  }
}

bool EvolvablePlatform::has_pe_fault(std::size_t array, std::size_t row,
                                     std::size_t col) const {
  check_array(array);
  return locked_slots_.count(
             geometry_.slot_index({array, row, col})) > 0;
}

fpga::FaultRecord EvolvablePlatform::inject_seu(std::size_t array) {
  check_array(array);
  // Uniform over the array's slots (position derived from the journal
  // length so repeated injections hit different cells deterministically).
  return injector_.inject_seu_in_slot(
      {array,
       static_cast<std::size_t>(
           hash_mix(config_.seed, injector_.journal().size(), array) %
           config_.shape.rows),
       static_cast<std::size_t>(
           hash_mix(config_.seed, array, injector_.journal().size()) %
           config_.shape.cols)});
}

fpga::FaultRecord EvolvablePlatform::inject_lpd(std::size_t array) {
  check_array(array);
  return injector_.inject_lpd_in_slot(
      {array,
       static_cast<std::size_t>(
           hash_mix(~config_.seed, injector_.journal().size(), array) %
           config_.shape.rows),
       static_cast<std::size_t>(
           hash_mix(~config_.seed, array, injector_.journal().size()) %
           config_.shape.cols)});
}

sim::Interval EvolvablePlatform::scrub_array(std::size_t array,
                                             sim::SimTime earliest,
                                             std::size_t* corrected,
                                             std::size_t* uncorrectable) {
  check_array(array);
  std::size_t fixed_total = 0;
  std::size_t stuck_total = 0;
  sim::Interval overall{earliest, earliest};
  bool first = true;
  for (std::size_t r = 0; r < config_.shape.rows; ++r) {
    for (std::size_t c = 0; c < config_.shape.cols; ++c) {
      std::size_t fixed = 0;
      std::size_t stuck = 0;
      const sim::Interval span = engine_->scrub_slot(
          {array, r, c}, earliest, array_resources_[array], &fixed, &stuck);
      fixed_total += fixed;
      stuck_total += stuck;
      if (first) {
        overall = span;
        first = false;
      } else {
        overall.end = span.end;
      }
    }
  }
  if (corrected != nullptr) *corrected = fixed_total;
  if (uncorrectable != nullptr) *uncorrectable = stuck_total;
  return overall;
}

void EvolvablePlatform::reset_time() {
  timeline_.reset();
  engine_->reset_stats();
  trace_.clear();
}

}  // namespace ehw::platform
