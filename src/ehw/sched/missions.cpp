#include "ehw/sched/missions.hpp"

#include <cstdio>
#include <cstring>
#include <istream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "ehw/img/filters.hpp"
#include "ehw/img/morphology.hpp"
#include "ehw/img/noise.hpp"
#include "ehw/img/synthetic.hpp"

namespace ehw::sched {
namespace {

evo::EsConfig es_config(const MissionSpec& spec) {
  evo::EsConfig es;
  es.lambda = spec.lambda;
  es.mutation_rate = spec.mutation_rate;
  es.two_level = spec.two_level;
  es.lanes = spec.lanes;
  es.generations = spec.generations;
  es.seed = spec.seed;
  return es;
}

[[noreturn]] void manifest_error(std::size_t line, const std::string& what) {
  throw std::runtime_error("manifest line " + std::to_string(line) + ": " +
                           what);
}

/// Strict unsigned parse: std::stoul would silently accept "-1" (it wraps
/// to 2^64-1, sailing past every range check), so digits only.
bool parse_u64(const std::string& value, std::uint64_t& out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = std::stoull(value);
  } catch (const std::exception&) {
    return false;  // out of range
  }
  return true;
}

}  // namespace

const char* kind_name(MissionKind kind) noexcept {
  switch (kind) {
    case MissionKind::kDenoise: return "denoise";
    case MissionKind::kEdge: return "edge";
    case MissionKind::kMorphology: return "morphology";
    case MissionKind::kCascade: return "cascade";
  }
  return "?";
}

bool parse_kind(const std::string& word, MissionKind& kind) noexcept {
  if (word == "denoise") {
    kind = MissionKind::kDenoise;
  } else if (word == "edge") {
    kind = MissionKind::kEdge;
  } else if (word == "morphology") {
    kind = MissionKind::kMorphology;
  } else if (word == "cascade") {
    kind = MissionKind::kCascade;
  } else {
    return false;
  }
  return true;
}

std::string apply_spec_option(MissionSpec& spec, const std::string& key,
                              const std::string& value) {
  const auto bad_value = [&key, &value] {
    return "bad value for '" + key + "': '" + value + "'";
  };
  std::uint64_t u64 = 0;
  if (key == "lanes") {
    if (!parse_u64(value, u64)) return bad_value();
    spec.lanes = static_cast<std::size_t>(u64);
  } else if (key == "priority") {
    try {
      std::size_t used = 0;
      spec.priority = std::stoi(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      return bad_value();
    }
  } else if (key == "generations") {
    if (!parse_u64(value, u64)) return bad_value();
    spec.generations = static_cast<Generation>(u64);
  } else if (key == "size") {
    if (!parse_u64(value, u64)) return bad_value();
    spec.size = static_cast<std::size_t>(u64);
  } else if (key == "noise") {
    try {
      std::size_t used = 0;
      spec.noise = std::stod(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      return bad_value();
    }
    if (!(spec.noise >= 0.0 && spec.noise <= 1.0)) {
      return "noise must be in [0, 1]";
    }
  } else if (key == "rate") {
    if (!parse_u64(value, u64)) return bad_value();
    spec.mutation_rate = static_cast<std::size_t>(u64);
  } else if (key == "lambda") {
    if (!parse_u64(value, u64)) return bad_value();
    spec.lambda = static_cast<std::size_t>(u64);
  } else if (key == "seed") {
    if (!parse_u64(value, u64)) return bad_value();
    spec.seed = u64;
  } else if (key == "scene-seed") {
    if (!parse_u64(value, u64)) return bad_value();
    spec.scene_seed = u64;
  } else if (key == "two-level") {
    spec.two_level = value != "0";
  } else if (key == "merged") {
    spec.merged_fitness = value != "0";
  } else if (key == "interleaved") {
    spec.interleaved = value != "0";
  } else if (key == "deadline-ms") {
    if (!parse_u64(value, u64)) return bad_value();
    spec.deadline_ms = u64;
  } else {
    return "unknown key '" + key + "'";
  }
  return {};
}

std::string validate_spec(const MissionSpec& spec) {
  if (spec.name.empty()) return "mission name required";
  if (spec.lanes == 0) return "lanes must be >= 1";
  if (spec.size < 4 || spec.size > 4096) return "size must be in [4, 4096]";
  if (spec.lambda == 0) return "lambda must be >= 1";
  return {};
}

std::vector<MissionSpec> parse_manifest(std::istream& in) {
  std::vector<MissionSpec> specs;
  std::map<std::string, std::size_t> name_lines;  // name -> defining line
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream words(line);
    std::string kind_word;
    if (!(words >> kind_word)) continue;  // blank / comment-only line

    MissionSpec spec;
    if (!parse_kind(kind_word, spec.kind)) {
      manifest_error(line_no, "unknown mission kind '" + kind_word + "'");
    }
    if (!(words >> spec.name)) {
      manifest_error(line_no, "missing mission name");
    }
    const auto [where, inserted] = name_lines.emplace(spec.name, line_no);
    if (!inserted) {
      manifest_error(line_no, "duplicate mission name '" + spec.name +
                                  "' (first used on line " +
                                  std::to_string(where->second) + ")");
    }
    std::string option;
    while (words >> option) {
      const std::size_t eq = option.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == option.size()) {
        manifest_error(line_no, "expected key=value, got '" + option + "'");
      }
      const std::string error =
          apply_spec_option(spec, option.substr(0, eq), option.substr(eq + 1));
      if (!error.empty()) manifest_error(line_no, error);
    }
    const std::string invalid = validate_spec(spec);
    if (!invalid.empty()) manifest_error(line_no, invalid);
    specs.push_back(std::move(spec));
  }
  return specs;
}

MissionImages make_mission_images(const MissionSpec& spec) {
  const img::Image scene =
      img::make_scene(spec.size, spec.size, spec.scene_seed);
  MissionImages images;
  switch (spec.kind) {
    case MissionKind::kDenoise:
    case MissionKind::kCascade: {
      Rng rng(hash_mix(spec.seed, 0xA11CE, spec.scene_seed));
      images.train = img::add_salt_pepper(scene, spec.noise, rng);
      images.reference = scene;
      break;
    }
    case MissionKind::kEdge:
      images.train = scene;
      images.reference = img::sobel_magnitude(scene);
      break;
    case MissionKind::kMorphology:
      images.train = scene;
      images.reference = img::dilate3x3(scene);
      break;
  }
  return images;
}

MissionImagesCache::Key MissionImagesCache::key_of(const MissionSpec& spec) {
  std::uint64_t noise_bits = 0;
  static_assert(sizeof(noise_bits) == sizeof(spec.noise));
  std::memcpy(&noise_bits, &spec.noise, sizeof(noise_bits));
  return {static_cast<int>(spec.kind), spec.size, spec.scene_seed, noise_bits,
          spec.seed};
}

std::size_t MissionImagesCache::KeyHash::operator()(
    const Key& key) const noexcept {
  const auto& [kind, size, scene_seed, noise_bits, seed] = key;
  return hash_mix(hash_mix(static_cast<std::uint64_t>(kind), size, scene_seed),
                  noise_bits, seed);
}

std::shared_ptr<const MissionImages> MissionImagesCache::get_or_make(
    const MissionSpec& spec) {
  return frames_.get_or_make(key_of(spec), [&spec] {
    return std::make_shared<const MissionImages>(make_mission_images(spec));
  });
}

JobConfig make_job_config(const MissionSpec& spec) {
  JobConfig job;
  job.name = spec.name;
  job.lanes = spec.lanes;
  job.priority = spec.priority;
  job.deadline_ms = spec.deadline_ms;
  return job;
}

std::string spec_to_manifest_line(const MissionSpec& spec) {
  std::ostringstream line;
  line << kind_name(spec.kind) << ' ' << spec.name;
  line << " lanes=" << spec.lanes;
  line << " priority=" << spec.priority;
  line << " generations=" << spec.generations;
  line << " size=" << spec.size;
  // %.17g round-trips every double exactly through std::stod.
  char noise[64];
  std::snprintf(noise, sizeof(noise), "%.17g", spec.noise);
  line << " noise=" << noise;
  line << " rate=" << spec.mutation_rate;
  line << " lambda=" << spec.lambda;
  line << " seed=" << spec.seed;
  line << " scene-seed=" << spec.scene_seed;
  line << " two-level=" << (spec.two_level ? 1 : 0);
  line << " merged=" << (spec.merged_fitness ? 1 : 0);
  line << " interleaved=" << (spec.interleaved ? 1 : 0);
  line << " deadline-ms=" << spec.deadline_ms;
  return line.str();
}

std::string spec_from_manifest_line(const std::string& line,
                                    MissionSpec& spec) {
  try {
    std::istringstream in(line);
    std::vector<MissionSpec> specs = parse_manifest(in);
    if (specs.size() != 1) return "expected exactly one manifest line";
    spec = std::move(specs.front());
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

void run_spec(platform::WaveExecutor& executor, const MissionSpec& spec,
              JobOutcome& outcome) {
  run_spec(executor, spec, outcome, MissionCheckpointing{});
}

void run_spec(platform::WaveExecutor& executor, const MissionSpec& spec,
              JobOutcome& outcome, const MissionCheckpointing& ck,
              MissionImagesCache* images_cache) {
  // The shared_ptr keeps the frames alive for the whole mission; cached
  // frames are bit-identical to fresh ones (pure function of the spec).
  const std::shared_ptr<const MissionImages> frames =
      images_cache != nullptr ? images_cache->get_or_make(spec)
                              : std::make_shared<const MissionImages>(
                                    make_mission_images(spec));
  const MissionImages& images = *frames;
  platform::CheckpointPolicy policy;
  policy.every = ck.every;
  policy.preempt_after = ck.preempt_after;
  policy.sink = ck.sink;
  policy.resume = ck.resume.get();
  policy.should_preempt = ck.should_preempt;
  const platform::CheckpointPolicy* checkpoint =
      ck.active() ? &policy : nullptr;
  if (spec.kind == MissionKind::kCascade) {
    platform::CascadeConfig config;
    config.es = es_config(spec);
    config.fitness = spec.merged_fitness ? platform::CascadeFitness::kMerged
                                         : platform::CascadeFitness::kSeparate;
    config.schedule = spec.interleaved
                          ? platform::CascadeSchedule::kInterleaved
                          : platform::CascadeSchedule::kSequential;
    outcome.cascade = platform::evolve_cascade_mission(
        executor, images.train, images.reference, config, checkpoint);
    outcome.stats.mission_time = outcome.cascade.duration;
  } else {
    outcome.intrinsic =
        platform::evolve_mission(executor, images.train, images.reference,
                                 es_config(spec), nullptr, checkpoint);
    outcome.stats.mission_time = outcome.intrinsic.duration;
  }
}

ArrayPool::JobBody make_job_body(MissionSpec spec) {
  return make_job_body(std::move(spec), MissionCheckpointing{});
}

ArrayPool::JobBody make_job_body(MissionSpec spec, MissionCheckpointing ck) {
  return [spec = std::move(spec), ck = std::move(ck)](
             MissionContext& context, JobOutcome& outcome) {
    // The evolution loops' boundary poll (every generation, every
    // cascade step) is the body's cancellation point — merged-fitness
    // cascades submit no waves, so run_wave's check never runs for them —
    // and folds in the pool's preemption request (lane quarantine pulling
    // the mission off its slice), so every pooled mission is cancellable,
    // honours its deadline and is migratable, not only those the caller
    // configured.
    MissionCheckpointing durable = ck;
    const std::function<bool()> upstream = durable.should_preempt;
    durable.should_preempt = [&context, upstream] {
      context.check_cancelled();
      return context.preempt_requested() || (upstream && upstream());
    };
    run_spec(context, spec, outcome, durable, &context.images_cache());
    const bool preempted = spec.kind == MissionKind::kCascade
                               ? outcome.cascade.preempted
                               : outcome.intrinsic.preempted;
    if (preempted) throw MissionPreempted();
  };
}

JobOutcome run_spec_standalone(const MissionSpec& spec,
                               ThreadPool* host_pool) {
  return run_spec_standalone(spec, host_pool, MissionCheckpointing{});
}

JobOutcome run_spec_standalone(const MissionSpec& spec, ThreadPool* host_pool,
                               const MissionCheckpointing& ck) {
  platform::PlatformConfig pc;
  pc.num_arrays = spec.lanes;
  // Every other field keeps its default, as a leased slice does (and
  // line_width matches PoolConfig's default), so this run is
  // bit-comparable to the pooled one.
  pc.pool = host_pool;
  platform::EvolvablePlatform platform(pc);
  std::vector<std::size_t> lanes(spec.lanes);
  for (std::size_t i = 0; i < lanes.size(); ++i) lanes[i] = i;
  platform::DirectWaveExecutor executor(platform, lanes);
  JobOutcome outcome;
  run_spec(executor, spec, outcome, ck);
  return outcome;
}

}  // namespace ehw::sched
