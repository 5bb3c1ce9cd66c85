#pragma once
// Wire protocol of the mission service: newline-delimited JSON frames
// over a loopback TCP connection.
//
// Handshake (versioned): on connect the server sends one greeting event
//   {"event":"hello","service":...,"protocol":1,"version":"x.y.z"}
// and the client must answer {"op":"hello","protocol":1} before any
// other op; a protocol mismatch is rejected and the connection closed.
//
// Requests are objects {"op": <name>, ...}; an optional "id" member is
// echoed verbatim into the matching response for client-side request
// correlation. Responses are {"ok":true,...} or
// {"ok":false,"error":<message>,"code":<machine tag>}. Codes the client
// can dispatch on: "queue_full" (admission control), "draining" (drain
// was requested), "bad_spec", "unknown_job", "bad_request",
// "unsupported_protocol". Every "queue_full" carries "retry_after_ms",
// the ms to wait before trying again — a daemon's refusal keeps it when
// a front relays it, and a front's own brownout shed sets it too.
//
// Ops (svc::Server and svc::Forwarder alike; the handshake and the
// session layer are svc::Frontend's): hello, submit, submit_batch,
// status, result (blocks until the job finishes), cancel, list, stats,
// health, watch (streams {"event":"progress"|"done"} frames after its
// ok-response), drain, trace (the process-wide span tracer:
// dump|arm|disarm|clear). A forwarder also answers backend (live
// membership: add|remove|list).
//
// Submit payloads reuse the batch-manifest vocabulary: {"op":"submit",
// "spec":{"kind":"denoise","name":"dn0","lanes":2,"generations":300,...}}
// — every spec key is the manifest key, applied through the same
// sched::apply_spec_option/validate_spec used by `mpa batch`, so the
// service accepts exactly the manifest job kinds with identical
// validation. Values that must be bit-exact at 64 bits travel as
// strings: genotype hashes as 16-digit hex, simulated durations as
// decimal nanoseconds ("sim_ns"), seeds as decimal strings in submit
// payloads (JSON numbers round at 2^53).
//
// submit_batch carries MANY mission specs in one round trip so swarm
// clients amortize connection latency: {"op":"submit_batch","specs":
// [{...},...],"defaults":{...}} — "defaults" (optional) is applied to
// every spec first (the shared frame: kind, size, scene-seed, noise...),
// each spec then overrides per-mission options and must end up with a
// kind and a batch-unique name. Admission is atomic: either every spec
// is accepted ({"ok":true,"jobs":[{"job":id,"name":...},...]} in spec
// order) or the whole batch is rejected (a bad spec is named;
// "queue_full" when the batch doesn't fit the inflight cap).
//
// submit is a one-spec submit_batch: both ops admit through the same
// function, so the same spec gets the same answer and the same refusal
// code either way. Only the parsing (one "spec", plus the optional
// "resume" state a failover carries) and the flat reply
// {"ok":true,"job":id,"name":...} are its own.

#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>

#include "ehw/common/json.hpp"
#include "ehw/sched/array_pool.hpp"
#include "ehw/sched/missions.hpp"

namespace ehw::svc {

inline constexpr int kProtocolVersion = 1;
inline constexpr const char* kServiceName = "mpa-ehw-mission-service";

[[nodiscard]] const char* status_name(sched::JobStatus status) noexcept;

/// 16-hex-digit rendering of a 64-bit hash (exact over the wire, where a
/// JSON number would round at 2^53).
[[nodiscard]] std::string hash_hex(std::uint64_t value);

/// Full spec as a submit payload object (every manifest key emitted).
[[nodiscard]] Json spec_to_json(const sched::MissionSpec& spec);

/// Builds a spec from a submit payload object; returns "" on success or
/// an error message (unknown key, bad value, failed validation).
[[nodiscard]] std::string spec_from_json(const Json& payload,
                                         sched::MissionSpec& spec);

/// Builds the spec list of a submit_batch request ("specs" array +
/// optional "defaults" object, batch-unique names enforced); returns ""
/// on success or an error message naming the offending spec index.
[[nodiscard]] std::string batch_specs_from_json(
    const Json& request, std::vector<sched::MissionSpec>& specs);

/// Result payload for a finished job. Carries status + error always;
/// fitness/genotype-hash/duration fields only when the job completed
/// (kDone). For cascades, "genotype_hash" covers the whole chain
/// (hash-mix over the stage hashes) and "stages" lists each stage's own
/// fitness and hash.
[[nodiscard]] Json outcome_to_json(sched::MissionKind kind,
                                   sched::JobStatus status,
                                   const sched::JobOutcome& outcome);

[[nodiscard]] Json make_ok();
[[nodiscard]] Json make_error(const std::string& message,
                              const std::string& code);

/// Resolves a request's "job" member in an id-keyed registry of records
/// carrying a `spec`: an id number, or a mission name where the latest
/// record wins (names may repeat over time). nullptr with `error` set
/// when the member is missing, malformed or unknown. The caller holds
/// the registry's lock.
template <typename Record>
[[nodiscard]] std::shared_ptr<Record> find_record(
    const std::map<std::uint64_t, std::shared_ptr<Record>>& records,
    const Json& request, std::string& error) {
  const Json* job_field = request.get("job");
  if (job_field == nullptr) {
    error = "request is missing 'job' (id or name)";
    return nullptr;
  }
  if (job_field->is_number()) {
    const double id = job_field->as_number();
    const auto it = json_number_is_exact_int(id) && id >= 0
                        ? records.find(static_cast<std::uint64_t>(id))
                        : records.end();
    if (it != records.end()) return it->second;
    error = "no such job id " + job_field->dump();
    return nullptr;
  }
  if (job_field->is_string()) {
    const std::string& name = job_field->as_string();
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      if (it->second->spec.name == name) return it->second;
    }
    error = "no job named '" + name + "'";
    return nullptr;
  }
  error = "'job' must be an id number or a name string";
  return nullptr;
}

/// Evicts the oldest records of an id-keyed registry until at most
/// `bound` remain (0 = keep everything), skipping those `finished`
/// rejects: live records stay whatever their age. The caller holds the
/// registry's lock.
template <typename Record, typename Finished>
void prune_finished(std::map<std::uint64_t, std::shared_ptr<Record>>& records,
                    std::size_t bound, const Finished& finished) {
  if (bound == 0) return;
  auto it = records.begin();
  while (records.size() > bound && it != records.end()) {
    it = finished(*it->second) ? records.erase(it) : std::next(it);
  }
}

}  // namespace ehw::svc
