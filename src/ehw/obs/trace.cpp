#include "ehw/obs/trace.hpp"

#include <algorithm>
#include <chrono>

namespace ehw::obs {

namespace detail {
std::atomic<bool> g_armed{false};
thread_local ProfileCollector* t_profile = nullptr;
}  // namespace detail

void ProfileCollector::add(const char* name, std::uint64_t dur_ns) {
  std::lock_guard lock(mutex_);
  for (PhaseTotal& entry : entries_) {
    if (entry.name == name) {
      ++entry.count;
      entry.total_ns += dur_ns;
      return;
    }
  }
  entries_.push_back(PhaseTotal{name, 1, dur_ns});
}

std::vector<PhaseTotal> ProfileCollector::totals() const {
  std::lock_guard lock(mutex_);
  return entries_;
}

Json ProfileCollector::to_json() const { return profile_to_json(totals()); }

Json profile_to_json(const std::vector<PhaseTotal>& phases) {
  Json rows = Json::array();
  for (const PhaseTotal& entry : phases) {
    Json phase = Json::object();
    phase.set("phase", entry.name);
    phase.set("count", entry.count);
    phase.set("total_ns", json_u64(entry.total_ns));
    rows.push_back(std::move(phase));
  }
  Json out = Json::object();
  out.set("phases", std::move(rows));
  return out;
}

Tracer& Tracer::global() {
  static Tracer instance;
  return instance;
}

std::uint64_t Tracer::now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           epoch)
          .count());
}

Tracer::ThreadRing& Tracer::local_ring() {
  // The shared_ptr keeps a thread's spans exportable after the thread
  // exits (job-body workers come and go; their spans should not).
  thread_local std::shared_ptr<ThreadRing> ring = [this] {
    auto fresh = std::make_shared<ThreadRing>();
    fresh->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(mutex_);
    rings_.push_back(fresh);
    return fresh;
  }();
  return *ring;
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t dur_ns) {
  ThreadRing& ring = local_ring();
  std::lock_guard lock(ring.mutex);
  ring.spans[ring.next % kRingCapacity] = Span{name, start_ns, dur_ns};
  ++ring.next;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    ring->next = 0;
  }
}

std::uint64_t Tracer::recorded() const {
  std::uint64_t total = 0;
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    total += ring->next;
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::uint64_t total = 0;
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    if (ring->next > kRingCapacity) total += ring->next - kRingCapacity;
  }
  return total;
}

Json Tracer::export_chrome() const {
  Json events = Json::array();
  std::lock_guard lock(mutex_);
  for (const auto& ring : rings_) {
    std::lock_guard ring_lock(ring->mutex);
    const std::uint64_t count = std::min<std::uint64_t>(ring->next,
                                                        kRingCapacity);
    const std::uint64_t first = ring->next - count;
    for (std::uint64_t i = first; i < ring->next; ++i) {
      const Span& span = ring->spans[i % kRingCapacity];
      Json event = Json::object();
      event.set("name", span.name);
      event.set("ph", "X");
      event.set("cat", "ehw");
      // trace_event ts/dur are microseconds; doubles carry sub-µs
      // fractions exactly enough for display.
      event.set("ts", static_cast<double>(span.start_ns) / 1e3);
      event.set("dur", static_cast<double>(span.dur_ns) / 1e3);
      event.set("pid", 1);
      event.set("tid", ring->tid);
      events.push_back(std::move(event));
    }
  }
  Json out = Json::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", "ms");
  return out;
}

}  // namespace ehw::obs
