// The benchmark's three workloads and their seeded mission generators.
// The daemon receives only the generated specs; everything here is a pure
// function of (workload, seed, index).

#include <array>
#include <cmath>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "ehw/common/rng.hpp"

namespace mbench {

using ehw::sched::MissionKind;
using ehw::sched::MissionSpec;

namespace {

constexpr std::array<MissionKind, 4> kKinds = {
    MissionKind::kDenoise, MissionKind::kEdge, MissionKind::kMorphology,
    MissionKind::kCascade};

/// Seeds stay below 2^48 so they are exact on every wire encoding.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                   std::uint64_t index) {
  return ehw::hash_mix(seed, stream, index) & ((1ULL << 48) - 1);
}

std::string mission_name(const char* prefix, std::uint64_t seed,
                         std::size_t index) {
  return std::string(prefix) + "-" + std::to_string(seed) + "-" +
         std::to_string(index);
}

// cold-mix: every mission a fresh fingerprint. Shapes are dealt from a
// 36-card deck (4 kinds x lanes {1,2,4} x sizes {128,192,256}) reshuffled
// per deck, so every seed offers the same mix in a different order. A
// cascade runs one stage per lane; its per-stage budget is divided by the
// stage count so that no shape costs more than ~2x another of its size.
constexpr std::size_t kColdDeck = 36;
constexpr std::size_t kColdGenerations = 24;

MissionSpec cold_mix(std::uint64_t seed, std::size_t index) {
  const std::size_t deck = index / kColdDeck;
  std::array<std::size_t, kColdDeck> order{};
  std::iota(order.begin(), order.end(), std::size_t{0});
  ehw::Rng rng(ehw::hash_mix(seed, 0xC01D, deck));
  for (std::size_t i = kColdDeck - 1; i > 0; --i) {
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  const std::size_t shape = order[index % kColdDeck];
  constexpr std::array<std::size_t, 3> kLanes = {1, 2, 4};
  constexpr std::array<std::size_t, 3> kSizes = {128, 192, 256};
  MissionSpec spec;
  spec.kind = kKinds[shape % 4];
  spec.lanes = kLanes[(shape / 4) % 3];
  spec.size = kSizes[shape / 12];
  spec.noise = 0.2;
  spec.generations = spec.kind == MissionKind::kCascade
                         ? (kColdGenerations + spec.lanes - 1) / spec.lanes
                         : kColdGenerations;
  spec.scene_seed = draw(seed, 1, index);
  spec.seed = draw(seed, 2, index);
  spec.name = mission_name("cm", seed, index);
  return spec;
}

// warm-fed: 8 fingerprints replayed round-robin at 32 px. Only the name
// differs between replays of one fingerprint. The front opens a backend
// connection per submit and per result, so the generation budget keeps
// missions long enough (~25 ms) that the TIME_WAIT sockets one run leaves
// on the loopback port range do not slow the next run's connects.
constexpr std::size_t kWarmFingerprints = 8;

MissionSpec warm_fed(std::uint64_t seed, std::size_t index) {
  const std::size_t k = index % kWarmFingerprints;
  MissionSpec spec;
  spec.kind = kKinds[k % 4];
  spec.lanes = 1 + k / 4;
  spec.size = 32;
  spec.noise = 0.2;
  spec.generations = 240;
  spec.scene_seed = draw(seed, 1, k);
  spec.seed = draw(seed, 2, k);
  spec.name = mission_name("wf", seed, index);
  return spec;
}

// durable-open: tiny single-lane missions, fresh fingerprints; with a
// checkpoint every 3 generations each writes 3 checkpoints.
MissionSpec durable_open(std::uint64_t seed, std::size_t index,
                         std::uint64_t stream) {
  constexpr std::array<std::size_t, 3> kSizes = {16, 24, 32};
  MissionSpec spec;
  spec.kind = kKinds[index % 3];
  spec.lanes = 1;
  spec.size = kSizes[(index / 3) % 3];
  spec.noise = 0.2;
  spec.generations = 9;
  spec.scene_seed = draw(seed, stream, index);
  spec.seed = draw(seed, stream + 1, index);
  spec.name = mission_name(stream == 1 ? "do" : "do-warm", seed, index);
  return spec;
}

Workload make_cold_mix() {
  Workload w;
  w.name = "cold-mix";
  w.mission_connections = 3;
  w.sim_prefix = kColdDeck;
  w.pool.num_arrays = 8;
  return w;
}

Workload make_warm_fed() {
  Workload w;
  w.name = "warm-fed";
  w.mission_connections = 2;
  w.backends = 2;
  w.sim_prefix = 2 * kWarmFingerprints;
  w.pool.num_arrays = 4;
  return w;
}

Workload make_durable_open() {
  Workload w;
  w.name = "durable-open";
  w.open_loop = true;
  w.mission_connections = 2;
  w.journaled = true;
  w.checkpoint_every = 3;
  w.max_inflight = 128;
  // Frozen well below capacity. On a 4-vCPU shared host, refusals start
  // near 800 missions/s in a calm phase but below 400/s when neighbours
  // load the host; at 100/s no mission is refused in either.
  w.rate_per_s = 100.0;
  w.sim_prefix = 64;
  w.pool.num_arrays = 8;
  return w;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const std::array<Workload, 3> kWorkloads = {
      make_cold_mix(), make_warm_fed(), make_durable_open()};
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

MissionSpec mission_spec(const Workload& workload, std::uint64_t seed,
                         std::size_t index) {
  if (workload.name == "cold-mix") return cold_mix(seed, index);
  if (workload.name == "warm-fed") return warm_fed(seed, index);
  return durable_open(seed, index, 1);
}

std::vector<MissionSpec> warmup_specs(const Workload& workload,
                                      std::uint64_t seed) {
  std::vector<MissionSpec> specs;
  if (workload.name == "warm-fed") {
    // Primes every fingerprint once (placement, caches and memo).
    for (std::size_t k = 0; k < kWarmFingerprints; ++k) {
      MissionSpec spec = warm_fed(seed, k);
      spec.name = mission_name("wf-warm", seed, k);
      specs.push_back(std::move(spec));
    }
  } else if (workload.name == "cold-mix") {
    // One fresh 128 px mission per connection: warms threads and
    // allocators, not caches (no timed mission shares its fingerprint).
    for (std::size_t i = 0; i < workload.mission_connections; ++i) {
      MissionSpec spec = cold_mix(seed, i);
      spec.lanes = 1;
      spec.kind = kKinds[i % 3];
      spec.size = 128;
      spec.generations = kColdGenerations;
      spec.scene_seed = draw(seed, 5, i);
      spec.seed = draw(seed, 6, i);
      spec.name = mission_name("cm-warm", seed, i);
      specs.push_back(std::move(spec));
    }
  } else {
    for (std::size_t i = 0; i < 6; ++i) specs.push_back(durable_open(seed, i, 3));
  }
  return specs;
}

std::vector<double> due_times(const Workload& workload, std::uint64_t seed,
                              double seconds) {
  std::vector<double> due;
  if (!workload.open_loop) return due;
  ehw::Rng rng(ehw::hash_mix(seed, 0xD0E));
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / workload.rate_per_s;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

}  // namespace mbench
