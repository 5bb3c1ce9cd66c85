#include "ehw/sched/job_queue.hpp"

#include "ehw/common/assert.hpp"

namespace ehw::sched {

void JobQueue::push(JobTicket ticket) {
  if (!pending_.empty()) {
    EHW_REQUIRE(ticket.id > pending_.back().ticket.id,
                "tickets must be pushed in submission order");
  }
  pending_.push_back(Pending{std::move(ticket), 0});
}

bool JobQueue::ranks_before(const Pending& a, const Pending& b) const noexcept {
  const int ea = effective_priority(a.ticket, a.age);
  const int eb = effective_priority(b.ticket, b.age);
  if (ea != eb) return ea > eb;
  return a.ticket.id < b.ticket.id;  // FIFO among equals
}

std::optional<JobTicket> JobQueue::pop_admissible(std::size_t free_arrays) {
  if (pending_.empty()) return std::nullopt;

  // Rank every waiting ticket; find the overall top and the best fitting.
  std::size_t top = 0;
  std::size_t best_fit = pending_.size();  // sentinel: none fits
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (ranks_before(pending_[i], pending_[top])) top = i;
    if (pending_[i].ticket.lanes <= free_arrays &&
        (best_fit == pending_.size() ||
         ranks_before(pending_[i], pending_[best_fit]))) {
      best_fit = i;
    }
  }
  if (best_fit == pending_.size()) return std::nullopt;  // nothing fits

  // Head-of-line protection: once the top ticket has starved long enough,
  // stop backfilling smaller jobs around it and drain until it fits.
  if (best_fit != top && pending_[top].age >= kStarvationAge) {
    return std::nullopt;
  }

  JobTicket admitted = std::move(pending_[best_fit].ticket);
  pending_.erase(pending_.begin() +
                 static_cast<std::ptrdiff_t>(best_fit));
  for (Pending& p : pending_) ++p.age;
  return admitted;
}

std::vector<JobTicket> JobQueue::evict_wider_than(std::size_t max_lanes) {
  std::vector<JobTicket> evicted;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->ticket.lanes > max_lanes) {
      evicted.push_back(std::move(it->ticket));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  return evicted;
}

}  // namespace ehw::sched
