#pragma once
// Pending-job queue for the ArrayPool: priority with aging fairness and
// capacity-aware (backfilling) admission.
//
// Policy, applied on every successful admission, fully deterministic:
//   * the ticket with the highest EFFECTIVE priority wins; ties go to the
//     earlier submission (FIFO). Effective priority = static priority +
//     age / kAgingRounds, where age counts admissions that happened while
//     the ticket waited — so any starved job eventually outranks a stream
//     of fresher high-priority ones;
//   * a ticket only pops when its lane demand fits the free arrays. When
//     the top ticket does NOT fit, smaller tickets may backfill around it
//     — until the top ticket has waited kStarvationAge admissions, after
//     which backfilling stops and the pool drains until the big job fits
//     (head-of-line protection for wide missions).
//
// The queue is a plain data structure (no locking): ArrayPool calls it
// under its own mutex, and the simulated-schedule replay instantiates a
// second queue with the same tickets to compute the policy's plan over
// the whole batch in simulated time (live admission can differ when jobs
// trickle in over host time — an early job is admitted before a
// later-submitted higher-priority one exists; mission results never
// depend on admission order).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace ehw::sched {

struct JobTicket {
  std::uint64_t id = 0;        // pool-assigned, == submission sequence
  std::string name;
  std::size_t lanes = 1;       // arrays the job needs for its duration
  int priority = 0;            // higher admits earlier
};

class JobQueue {
 public:
  /// Admissions a waiting ticket sits through per unit of priority gained.
  static constexpr std::uint64_t kAgingRounds = 4;
  /// Admissions the top ticket waits before backfilling around it stops.
  static constexpr std::uint64_t kStarvationAge = 16;

  void push(JobTicket ticket);

  [[nodiscard]] bool empty() const noexcept { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return pending_.size(); }

  /// Pops the next ticket to admit given `free_arrays`, per the policy
  /// above, or nullopt when nothing may start (nothing fits, or the top
  /// ticket is starved and must not be backfilled around). Every ticket
  /// left waiting by a successful pop gains one unit of age.
  [[nodiscard]] std::optional<JobTicket> pop_admissible(
      std::size_t free_arrays);

  /// Removes and returns every pending ticket whose lane demand exceeds
  /// `max_lanes`. Used when quarantine shrinks the pool's healthy
  /// capacity below what a queued job needs: such a ticket could wait
  /// forever, so the pool fails it cleanly instead.
  [[nodiscard]] std::vector<JobTicket> evict_wider_than(
      std::size_t max_lanes);

  /// Effective priority a ticket currently queued would be ranked with
  /// (exposed for tests and schedule introspection).
  [[nodiscard]] int effective_priority(const JobTicket& ticket,
                                       std::uint64_t age) const noexcept {
    return ticket.priority + static_cast<int>(age / kAgingRounds);
  }

 private:
  struct Pending {
    JobTicket ticket;
    std::uint64_t age = 0;  // admissions that happened while waiting
  };

  /// True when a ranks strictly ahead of b.
  [[nodiscard]] bool ranks_before(const Pending& a,
                                  const Pending& b) const noexcept;

  std::vector<Pending> pending_;  // submission order (ids ascend)
};

}  // namespace ehw::sched
