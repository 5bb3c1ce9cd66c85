#include "ehw/svc/protocol.hpp"

#include <cstdio>

#include "ehw/common/rng.hpp"
#include "ehw/obs/trace.hpp"

namespace ehw::svc {
namespace {

/// Stringifies a JSON scalar into the manifest value vocabulary so the
/// shared sched::apply_spec_option performs ALL interpretation (one
/// validation path for manifest lines and submit payloads).
std::string scalar_to_option_value(const Json& value, bool& ok) {
  ok = true;
  if (value.is_string()) return value.as_string();
  if (value.is_bool()) return value.as_bool() ? "1" : "0";
  if (value.is_number()) {
    char buf[32];
    const double n = value.as_number();
    if (json_number_is_exact_int(n) && n >= 0) {
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(n));
    } else {
      std::snprintf(buf, sizeof buf, "%.17g", n);
    }
    return buf;
  }
  ok = false;
  return {};
}

}  // namespace

const char* status_name(sched::JobStatus status) noexcept {
  switch (status) {
    case sched::JobStatus::kQueued: return "queued";
    case sched::JobStatus::kRunning: return "running";
    case sched::JobStatus::kDone: return "done";
    case sched::JobStatus::kFailed: return "failed";
    case sched::JobStatus::kCancelled: return "cancelled";
    case sched::JobStatus::kPreempted: return "preempted";
  }
  return "?";
}

std::string hash_hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

Json spec_to_json(const sched::MissionSpec& spec) {
  Json payload = Json::object();
  payload.set("kind", sched::kind_name(spec.kind));
  payload.set("name", spec.name);
  payload.set("lanes", static_cast<std::uint64_t>(spec.lanes));
  payload.set("priority", spec.priority);
  payload.set("generations", static_cast<std::uint64_t>(spec.generations));
  payload.set("size", static_cast<std::uint64_t>(spec.size));
  payload.set("noise", spec.noise);
  payload.set("rate", static_cast<std::uint64_t>(spec.mutation_rate));
  payload.set("lambda", static_cast<std::uint64_t>(spec.lambda));
  // Seeds are full 64-bit values; as JSON numbers they would round at
  // 2^53 and silently change the mission. Strings keep them bit-exact
  // (apply_spec_option parses decimal strings natively).
  payload.set("seed", std::to_string(spec.seed));
  payload.set("scene-seed", std::to_string(spec.scene_seed));
  payload.set("two-level", spec.two_level);
  payload.set("merged", spec.merged_fitness);
  payload.set("interleaved", spec.interleaved);
  return payload;
}

namespace {

/// Applies one payload object's keys onto `spec` (no final validation);
/// `saw_kind` accumulates across calls so defaults may supply the kind.
std::string apply_spec_json(const Json& payload, sched::MissionSpec& spec,
                            bool& saw_kind) {
  if (!payload.is_object()) return "spec must be a JSON object";
  for (const auto& [key, value] : payload.as_object()) {
    if (key == "kind") {
      if (!value.is_string() || !sched::parse_kind(value.as_string(),
                                                   spec.kind)) {
        return "unknown mission kind '" +
               (value.is_string() ? value.as_string() : value.dump()) + "'";
      }
      saw_kind = true;
      continue;
    }
    if (key == "name") {
      if (!value.is_string()) return "mission name must be a string";
      spec.name = value.as_string();
      continue;
    }
    bool scalar = false;
    const std::string text = scalar_to_option_value(value, scalar);
    if (!scalar) return "value for '" + key + "' must be a scalar";
    const std::string error = sched::apply_spec_option(spec, key, text);
    if (!error.empty()) return error;
  }
  return {};
}

}  // namespace

std::string spec_from_json(const Json& payload, sched::MissionSpec& spec) {
  bool saw_kind = false;
  const std::string error = apply_spec_json(payload, spec, saw_kind);
  if (!error.empty()) return error;
  if (!saw_kind) return "spec is missing 'kind'";
  return sched::validate_spec(spec);
}

std::string batch_specs_from_json(const Json& request,
                                  std::vector<sched::MissionSpec>& specs) {
  const Json* specs_field = request.get("specs");
  if (specs_field == nullptr || !specs_field->is_array()) {
    return "submit_batch needs a 'specs' array";
  }
  if (specs_field->as_array().empty()) return "'specs' must not be empty";

  // The shared half of every spec (the common frame: kind, size,
  // scene-seed, noise...), applied before each spec's own options.
  sched::MissionSpec base;
  bool base_kind = false;
  if (const Json* defaults = request.get("defaults")) {
    const std::string error = apply_spec_json(*defaults, base, base_kind);
    if (!error.empty()) return "defaults: " + error;
  }

  specs.clear();
  specs.reserve(specs_field->as_array().size());
  std::size_t index = 0;
  for (const Json& payload : specs_field->as_array()) {
    sched::MissionSpec spec = base;
    bool saw_kind = base_kind;
    const auto fail = [&index](const std::string& what) {
      return "spec " + std::to_string(index) + ": " + what;
    };
    std::string error = apply_spec_json(payload, spec, saw_kind);
    if (!error.empty()) return fail(error);
    if (!saw_kind) return fail("missing 'kind'");
    error = sched::validate_spec(spec);
    if (!error.empty()) return fail(error);
    for (const sched::MissionSpec& earlier : specs) {
      if (earlier.name == spec.name) {
        return fail("duplicate mission name '" + spec.name + "'");
      }
    }
    specs.push_back(std::move(spec));
    ++index;
  }
  return {};
}

Json outcome_to_json(sched::MissionKind kind, sched::JobStatus status,
                     const sched::JobOutcome& outcome) {
  Json result = Json::object();
  result.set("status", status_name(status));
  if (!outcome.error.empty()) result.set("error", outcome.error);
  result.set("cache_hits", outcome.stats.cache_hits);
  result.set("cache_misses", outcome.stats.cache_misses);
  result.set("memo_hits", outcome.stats.memo_hits);
  result.set("memo_misses", outcome.stats.memo_misses);
  // Additive: phase-time breakdown from the span guards, when the
  // scheduler collected one. Present for any terminal status (a failed
  // mission's partial profile is exactly what an operator wants to see).
  if (!outcome.profile.empty()) {
    result.set("profile", obs::profile_to_json(outcome.profile));
  }
  if (status != sched::JobStatus::kDone) return result;

  result.set("sim_ns",
             std::to_string(outcome.stats.mission_time));  // bit-exact
  result.set("sim_s", sim::to_seconds(outcome.stats.mission_time));
  if (kind == sched::MissionKind::kCascade) {
    result.set("best_fitness",
               static_cast<std::uint64_t>(outcome.cascade.chain_fitness));
    std::uint64_t chain_hash = 0;
    Json stages = Json::array();
    for (const platform::CascadeStageOutcome& stage :
         outcome.cascade.stages) {
      const std::uint64_t stage_hash = stage.best.hash();
      chain_hash = hash_mix(chain_hash, stage_hash);
      Json entry = Json::object();
      entry.set("fitness", static_cast<std::uint64_t>(stage.stage_fitness));
      entry.set("genotype_hash", hash_hex(stage_hash));
      stages.push_back(std::move(entry));
    }
    result.set("genotype_hash", hash_hex(chain_hash));
    result.set("stages", std::move(stages));
  } else {
    result.set("generations",
               static_cast<std::uint64_t>(outcome.intrinsic.es.generations_run));
    result.set("best_fitness",
               static_cast<std::uint64_t>(outcome.intrinsic.es.best_fitness));
    result.set("genotype_hash", hash_hex(outcome.intrinsic.es.best.hash()));
    result.set("pe_writes", outcome.intrinsic.pe_writes);
  }
  return result;
}

Json make_ok() {
  Json response = Json::object();
  response.set("ok", true);
  return response;
}

Json make_error(const std::string& message, const std::string& code) {
  Json response = Json::object();
  response.set("ok", false);
  response.set("error", message);
  if (!code.empty()) response.set("code", code);
  return response;
}

}  // namespace ehw::svc
