#pragma once
// Deterministic, seeded fault injection for robustness testing.
//
// A process-wide FaultPlan arms named injection sites spread across the
// stack (socket I/O, journal fsync, checkpoint store, pooled job bodies,
// mid-mission lane SEUs). Each site carries a trigger rule evaluated on
// every HIT (a call to should_fire at that site):
//
//   after:N   skip the first N hits, then become eligible
//   every:N   of the eligible hits, fire every Nth (1 = all)
//   count:N   stop after N fires (default unlimited)
//   prob:P    seeded coin per eligible hit; the draw is a stateless hash
//             of (plan seed, site, hit index), so firing is deterministic
//             for a given plan regardless of thread interleaving
//
// Plans come from `mpa serve --fault-plan SPEC`, the EHW_FAULT_PLAN
// environment variable, or programmatic install() in tests. The spec
// grammar is ';'-separated clauses:
//
//   sock_read_stall;fsync=after:1,count:1;lane_seu=after:10,count:1
//   stall-ms=200;seed=42
//
// A bare site name arms it with defaults (fire on every hit). The two
// global clauses set the plan seed and the stall duration used by the
// *_stall / task_delay sites.
//
// Cost when no plan is installed: one relaxed atomic load per site hit
// (and the evolution inner loops never hit a site at all).

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace ehw::fault {

enum class Site : std::uint8_t {
  kSockReadError = 0,  // recv fails with EIO
  kSockReadStall,      // recv delayed by stall_ms
  kSockWriteError,     // send fails with EIO
  kSockWriteStall,     // send delayed by stall_ms
  kJournalFsync,       // journal append reports fsync failure
  kCheckpointIo,       // checkpoint store read/write fails
  kTaskThrow,          // a scheduled job task throws on entry
  kTaskDelay,          // a pooled job body delayed by stall_ms on entry
  kLaneSeu,            // a leased array takes an SEU mid-mission
  kPollError,          // a forwarder backend stats poll fails outright
  kBackendHello,       // a backend identity probe (hello/epoch) fails
  kOversizeLine,       // read_line treats the next frame as oversized
  kSessionIdle,        // a service session answers idle_timeout, not a request
  kCount,
};
inline constexpr std::size_t kSiteCount = static_cast<std::size_t>(Site::kCount);

[[nodiscard]] const char* site_name(Site site) noexcept;
[[nodiscard]] bool parse_site(std::string_view name, Site& out) noexcept;

struct SiteRule {
  bool armed = false;
  std::uint64_t after = 0;  // hits to skip before eligibility
  std::uint64_t every = 1;  // fire every Nth eligible hit
  std::uint64_t count = ~std::uint64_t{0};  // max fires
  double prob = 1.0;        // seeded per-hit coin
};

struct FaultPlan {
  std::uint64_t seed = 0x5EEDFA17ULL;
  std::uint32_t stall_ms = 50;
  std::array<SiteRule, kSiteCount> rules{};

  [[nodiscard]] SiteRule& rule(Site site) noexcept {
    return rules[static_cast<std::size_t>(site)];
  }
  [[nodiscard]] const SiteRule& rule(Site site) const noexcept {
    return rules[static_cast<std::size_t>(site)];
  }
};

/// Parses a plan spec (grammar above) into `out`. Returns an error
/// message, or "" on success. An empty spec yields an empty (but
/// installable) plan that never fires.
[[nodiscard]] std::string parse_plan(std::string_view spec, FaultPlan& out);

/// Installs `plan` process-wide and resets all hit/fire counters.
void install(const FaultPlan& plan);
/// Removes any installed plan; all sites go quiet (and cost one relaxed
/// load again).
void uninstall() noexcept;
[[nodiscard]] bool active() noexcept;

namespace detail {
extern std::atomic<bool> g_enabled;
[[nodiscard]] bool should_fire_slow(Site site) noexcept;
}  // namespace detail

/// Counts a hit at `site`; true when the installed plan says this hit
/// fires. The fast path (no plan) is a single relaxed atomic load.
[[nodiscard]] inline bool should_fire(Site site) noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed) &&
         detail::should_fire_slow(site);
}

/// should_fire + sleep(stall_ms) when it fires; for the stall/delay sites.
void maybe_stall(Site site) noexcept;

/// Observability for tests and the service `health` op.
[[nodiscard]] std::uint64_t hits(Site site) noexcept;
[[nodiscard]] std::uint64_t fired(Site site) noexcept;
[[nodiscard]] std::uint32_t stall_ms() noexcept;
/// Seed of the installed plan (default-plan seed when none is armed).
/// Consumers that want deterministic jitter under EHW_FAULT_PLAN key
/// their hash on this.
[[nodiscard]] std::uint64_t plan_seed() noexcept;

/// RAII install/uninstall for tests.
class ScopedPlan {
 public:
  explicit ScopedPlan(const FaultPlan& plan) { install(plan); }
  explicit ScopedPlan(std::string_view spec);
  ~ScopedPlan() { uninstall(); }
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;
};

}  // namespace ehw::fault
