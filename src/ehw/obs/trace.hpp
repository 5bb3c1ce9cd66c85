#pragma once
// obs::Tracer — lock-light span tracing for the telemetry subsystem.
//
// Instrumented phases (queue-wait, compile, wave-eval, memo lookup,
// checkpoint-write, journal-fsync, socket round-trips) drop
// EHW_TRACE_SPAN("name") RAII guards. When the tracer is DISARMED the
// guard costs one relaxed atomic load plus one thread-local pointer read
// — the fault.hpp fast-path discipline, verified by BM_TelemetryOverhead
// and the bench-diff gate. When ARMED, each completed span is appended
// to a fixed-size per-thread ring buffer behind a per-thread mutex that
// only the (rare) exporter ever contends, so recording threads never
// serialize against each other.
//
// Export is Chrome trace_event JSON ({"traceEvents":[{"ph":"X",...}]}),
// loadable in chrome://tracing and Perfetto, reachable via the service's
// `trace` protocol op and `mpa trace DUMP.json`. Rings wrap: a long run
// keeps its most recent kRingCapacity spans per thread and counts what
// it dropped.
//
// Mission profiles ride the same guards: while a ProfileCollector is
// installed on the current thread (the scheduler scopes one around each
// job body), every span also accumulates into a per-phase
// {count, total_ns} table, which becomes the optional "profile" section
// of the mission's result — phase breakdowns work even with the tracer
// disarmed, costing two clock reads per span only for profiled threads.
//
// Span names must be string LITERALS (static storage): rings store the
// pointer, never a copy.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ehw/common/json.hpp"

namespace ehw::obs {

struct Span {
  const char* name = nullptr;  // static storage (macro literal)
  std::uint64_t start_ns = 0;  // Tracer::now_ns() timebase
  std::uint64_t dur_ns = 0;
};

/// One phase of a mission profile: how often a span fired and its summed
/// duration.
struct PhaseTotal {
  const char* name = nullptr;  // the span's literal, identity-compared
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

/// {"phases":[{"phase":...,"count":...,"total_ns":"..."}]} in the given
/// order; total_ns as a decimal string (64-bit exact).
[[nodiscard]] Json profile_to_json(const std::vector<PhaseTotal>& phases);

/// Per-mission phase accumulator. add() is called from the thread the
/// collector is installed on (the job-body thread); totals() and
/// to_json() may run later from another thread — the mutex covers that
/// hand-off.
class ProfileCollector {
 public:
  void add(const char* name, std::uint64_t dur_ns);
  /// The phases in first-seen order.
  [[nodiscard]] std::vector<PhaseTotal> totals() const;
  /// profile_to_json(totals()).
  [[nodiscard]] Json to_json() const;

 private:
  mutable std::mutex mutex_;
  std::vector<PhaseTotal> entries_;
};

namespace detail {
extern std::atomic<bool> g_armed;
extern thread_local ProfileCollector* t_profile;
}  // namespace detail

/// Installs a ProfileCollector on the current thread for its lifetime
/// (restoring any previous one), so spans recorded by this thread also
/// feed the mission's phase breakdown.
class ProfileScope {
 public:
  explicit ProfileScope(ProfileCollector* collector) noexcept
      : previous_(detail::t_profile) {
    detail::t_profile = collector;
  }
  ~ProfileScope() { detail::t_profile = previous_; }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  ProfileCollector* previous_;
};

class Tracer {
 public:
  /// Spans kept per thread; older spans are overwritten (and counted as
  /// dropped) once a thread wraps.
  static constexpr std::size_t kRingCapacity = 4096;

  static Tracer& global();

  void arm() noexcept { detail::g_armed.store(true, std::memory_order_relaxed); }
  void disarm() noexcept {
    detail::g_armed.store(false, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool armed() noexcept {
    return detail::g_armed.load(std::memory_order_relaxed);
  }

  /// Monotonic nanoseconds since the process-wide trace epoch (first
  /// use); the timebase of every span and of mission age fields.
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  /// Appends one completed span to the calling thread's ring.
  void record(const char* name, std::uint64_t start_ns,
              std::uint64_t dur_ns);

  /// Drops every recorded span (rings stay registered).
  void clear();

  [[nodiscard]] std::uint64_t recorded() const;  // total ever recorded
  [[nodiscard]] std::uint64_t dropped() const;   // lost to wraparound

  /// Chrome trace_event export: {"traceEvents":[{"name","ph":"X","ts",
  /// "dur","pid","tid"},...],"displayTimeUnit":"ms"} — ts/dur in
  /// microseconds per the format. Spans merge across all thread rings.
  [[nodiscard]] Json export_chrome() const;

 private:
  struct ThreadRing {
    std::mutex mutex;
    std::array<Span, kRingCapacity> spans;
    std::uint64_t next = 0;  // total recorded; slot = next % capacity
    std::uint64_t tid = 0;   // stable per-thread export id
  };

  [[nodiscard]] ThreadRing& local_ring();

  mutable std::mutex mutex_;  // guards rings_ registration/iteration
  std::vector<std::shared_ptr<ThreadRing>> rings_;
  std::atomic<std::uint64_t> next_tid_{1};
};

/// RAII span: near-free when the tracer is disarmed and no profile is
/// installed on this thread.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name) noexcept {
    if (Tracer::armed() || detail::t_profile != nullptr) {
      name_ = name;
      start_ns_ = Tracer::now_ns();
    }
  }
  ~SpanGuard() {
    if (name_ == nullptr) return;
    const std::uint64_t dur = Tracer::now_ns() - start_ns_;
    if (detail::t_profile != nullptr) detail::t_profile->add(name_, dur);
    if (Tracer::armed()) Tracer::global().record(name_, start_ns_, dur);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
};

#define EHW_OBS_CONCAT_INNER(a, b) a##b
#define EHW_OBS_CONCAT(a, b) EHW_OBS_CONCAT_INNER(a, b)
/// Records the enclosing scope as a span named `name` (string literal).
#define EHW_TRACE_SPAN(name) \
  ::ehw::obs::SpanGuard EHW_OBS_CONCAT(ehw_trace_span_, __LINE__)(name)

}  // namespace ehw::obs
