#include "ehw/common/fault.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "ehw/common/assert.hpp"
#include "ehw/common/rng.hpp"

namespace ehw::fault {
namespace {

struct SiteCounters {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fired{0};
};

// The installed plan lives in static storage guarded by g_enabled: the
// plan (and stall duration) only mutate while disabled, so readers that
// observed g_enabled == true see a fully written plan (install uses a
// release store; should_fire's acquire load pairs with it).
std::mutex g_install_mutex;
FaultPlan g_plan;
std::array<SiteCounters, kSiteCount> g_counters;

constexpr const char* kSiteNames[kSiteCount] = {
    "sock_read_error", "sock_read_stall", "sock_write_error",
    "sock_write_stall", "journal_fsync",  "checkpoint_io",
    "task_throw",       "task_delay",     "lane_seu",
    "poll_error",       "backend_hello",  "oversize_line",
    "session_idle",
};

[[nodiscard]] bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

[[nodiscard]] bool parse_prob(std::string_view text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const std::string copy(text);
  const double value = std::strtod(copy.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  if (!(value >= 0.0 && value <= 1.0)) return false;
  out = value;
  return true;
}

/// One rule clause: "key:value[,key:value...]" applied onto `rule`.
[[nodiscard]] std::string parse_rule(std::string_view body, SiteRule& rule) {
  while (!body.empty()) {
    const std::size_t comma = body.find(',');
    const std::string_view item =
        comma == std::string_view::npos ? body : body.substr(0, comma);
    body = comma == std::string_view::npos ? std::string_view{}
                                           : body.substr(comma + 1);
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) {
      return "rule item '" + std::string(item) + "' needs key:value";
    }
    const std::string_view key = item.substr(0, colon);
    const std::string_view value = item.substr(colon + 1);
    if (key == "after") {
      if (!parse_u64(value, rule.after)) return "bad after value";
    } else if (key == "every") {
      if (!parse_u64(value, rule.every) || rule.every == 0) {
        return "bad every value (need >= 1)";
      }
    } else if (key == "count") {
      if (!parse_u64(value, rule.count)) return "bad count value";
    } else if (key == "prob") {
      if (!parse_prob(value, rule.prob)) {
        return "bad prob value (need 0..1)";
      }
    } else {
      return "unknown rule key '" + std::string(key) + "'";
    }
  }
  return {};
}

}  // namespace

const char* site_name(Site site) noexcept {
  const auto index = static_cast<std::size_t>(site);
  return index < kSiteCount ? kSiteNames[index] : "?";
}

bool parse_site(std::string_view name, Site& out) noexcept {
  for (std::size_t i = 0; i < kSiteCount; ++i) {
    if (name == kSiteNames[i]) {
      out = static_cast<Site>(i);
      return true;
    }
  }
  if (name == "fsync") {  // common shorthand
    out = Site::kJournalFsync;
    return true;
  }
  return false;
}

std::string parse_plan(std::string_view spec, FaultPlan& out) {
  FaultPlan plan;
  while (!spec.empty()) {
    const std::size_t semi = spec.find(';');
    std::string_view clause =
        semi == std::string_view::npos ? spec : spec.substr(0, semi);
    spec = semi == std::string_view::npos ? std::string_view{}
                                          : spec.substr(semi + 1);
    while (!clause.empty() && clause.front() == ' ') clause.remove_prefix(1);
    while (!clause.empty() && clause.back() == ' ') clause.remove_suffix(1);
    if (clause.empty()) continue;

    const std::size_t eq = clause.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? clause : clause.substr(0, eq);
    const std::string_view body =
        eq == std::string_view::npos ? std::string_view{}
                                     : clause.substr(eq + 1);

    if (name == "seed") {
      if (!parse_u64(body, plan.seed)) return "bad seed value";
      continue;
    }
    if (name == "stall-ms") {
      std::uint64_t ms = 0;
      if (!parse_u64(body, ms) || ms > 600000) return "bad stall-ms value";
      plan.stall_ms = static_cast<std::uint32_t>(ms);
      continue;
    }

    Site site{};
    if (!parse_site(name, site)) {
      return "unknown fault site '" + std::string(name) + "'";
    }
    SiteRule rule;
    rule.armed = true;
    if (eq != std::string_view::npos) {
      const std::string error = parse_rule(body, rule);
      if (!error.empty()) {
        return std::string(name) + ": " + error;
      }
    }
    plan.rule(site) = rule;
  }
  out = plan;
  return {};
}

namespace detail {

std::atomic<bool> g_enabled{false};

bool should_fire_slow(Site site) noexcept {
  const auto index = static_cast<std::size_t>(site);
  if (index >= kSiteCount) return false;
  // Re-check with acquire so the plan written before the release store of
  // g_enabled is visible.
  if (!g_enabled.load(std::memory_order_acquire)) return false;
  const SiteRule& rule = g_plan.rules[index];
  SiteCounters& counters = g_counters[index];
  const std::uint64_t hit =
      counters.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!rule.armed) return false;
  if (hit <= rule.after) return false;
  if ((hit - rule.after - 1) % rule.every != 0) return false;
  if (rule.prob < 1.0) {
    // Stateless seeded coin: deterministic per (plan, site, hit index),
    // independent of which thread observed the hit.
    const std::uint64_t draw =
        hash_mix(g_plan.seed, index, hit) >> 11;
    if (static_cast<double>(draw) * 0x1.0p-53 >= rule.prob) return false;
  }
  if (counters.fired.fetch_add(1, std::memory_order_relaxed) >= rule.count) {
    counters.fired.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

}  // namespace detail

void install(const FaultPlan& plan) {
  const std::lock_guard<std::mutex> lock(g_install_mutex);
  detail::g_enabled.store(false, std::memory_order_release);
  g_plan = plan;
  for (SiteCounters& counters : g_counters) {
    counters.hits.store(0, std::memory_order_relaxed);
    counters.fired.store(0, std::memory_order_relaxed);
  }
  detail::g_enabled.store(true, std::memory_order_release);
}

void uninstall() noexcept {
  const std::lock_guard<std::mutex> lock(g_install_mutex);
  detail::g_enabled.store(false, std::memory_order_release);
}

bool active() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void maybe_stall(Site site) noexcept {
  if (should_fire(site)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms()));
  }
}

std::uint64_t hits(Site site) noexcept {
  const auto index = static_cast<std::size_t>(site);
  return index < kSiteCount
             ? g_counters[index].hits.load(std::memory_order_relaxed)
             : 0;
}

std::uint64_t fired(Site site) noexcept {
  const auto index = static_cast<std::size_t>(site);
  return index < kSiteCount
             ? g_counters[index].fired.load(std::memory_order_relaxed)
             : 0;
}

std::uint32_t stall_ms() noexcept { return g_plan.stall_ms; }

std::uint64_t plan_seed() noexcept { return g_plan.seed; }

ScopedPlan::ScopedPlan(std::string_view spec) {
  FaultPlan plan;
  const std::string error = parse_plan(spec, plan);
  EHW_REQUIRE(error.empty(), "bad fault plan: " + error);
  install(plan);
}

}  // namespace ehw::fault
