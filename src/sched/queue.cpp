#include "sched/queue.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace sched {

const char* to_string(Discipline d) {
  switch (d) {
    case Discipline::kFcfs: return "fcfs";
    case Discipline::kPriority: return "priority";
    case Discipline::kBackfill: return "backfill";
  }
  return "?";
}

namespace {

/// Greedy in-order scan: start jobs while they fit; the first job that
/// does not fit blocks everything behind it.
std::vector<std::size_t> head_blocking(const std::vector<std::size_t>& order,
                                       const std::vector<PendingView>& pending,
                                       std::size_t free_nodes) {
  std::vector<std::size_t> start;
  for (const std::size_t i : order) {
    const auto need = static_cast<std::size_t>(pending[i].nodes);
    if (need > free_nodes) break;
    free_nodes -= need;
    start.push_back(i);
  }
  return start;
}

/// EASY backfill: FCFS until the head blocks, then give the head a
/// reservation (the "shadow time" when enough running jobs will have
/// finished) and let later jobs start iff they fit now and either finish
/// by the shadow time or use only nodes the reservation leaves spare.
std::vector<std::size_t> easy_backfill(const std::vector<PendingView>& pending,
                                       std::size_t free_nodes,
                                       simkit::Time now,
                                       std::vector<RunningView>& running) {
  std::vector<std::size_t> start;
  std::size_t head = 0;
  for (; head < pending.size(); ++head) {
    const auto need = static_cast<std::size_t>(pending[head].nodes);
    if (need > free_nodes) break;
    free_nodes -= need;
    // The job we start counts as running for the shadow computation.
    running.push_back({pending[head].nodes,
                       now + pending[head].est_runtime_s});
    start.push_back(head);
  }
  if (head >= pending.size()) return start;  // nothing blocked

  // Reservation for the blocked head: walk running jobs by estimated
  // finish until enough nodes accumulate.
  std::sort(running.begin(), running.end(),
            [](const RunningView& a, const RunningView& b) {
              return a.est_finish < b.est_finish;
            });
  const auto head_need = static_cast<std::size_t>(pending[head].nodes);
  std::size_t avail = free_nodes;
  simkit::Time shadow = now;
  for (const RunningView& r : running) {
    if (avail >= head_need) break;
    avail += static_cast<std::size_t>(r.nodes);
    shadow = r.est_finish;
  }
  if (avail < head_need) {
    // The head can never run (larger than the machine as currently
    // running) — treat as unreservable, no backfill past it.
    return start;
  }
  // Nodes the head's reservation leaves spare at the shadow time.
  std::size_t extra = avail - head_need;

  for (std::size_t i = head + 1; i < pending.size(); ++i) {
    const auto need = static_cast<std::size_t>(pending[i].nodes);
    if (need > free_nodes) continue;
    const bool ends_by_shadow = now + pending[i].est_runtime_s <= shadow;
    const bool fits_spare = need <= extra;
    if (!ends_by_shadow && !fits_spare) continue;
    if (!ends_by_shadow) extra -= need;
    free_nodes -= need;
    start.push_back(i);
  }
  return start;
}

}  // namespace

std::vector<std::size_t> select_jobs(Discipline d,
                                     const std::vector<PendingView>& pending,
                                     std::size_t free_nodes,
                                     simkit::Time now,
                                     std::vector<RunningView> running) {
  std::vector<std::size_t> order(pending.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  switch (d) {
    case Discipline::kFcfs:
      return head_blocking(order, pending, free_nodes);
    case Discipline::kPriority:
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         if (pending[a].priority != pending[b].priority) {
                           return pending[a].priority > pending[b].priority;
                         }
                         if (pending[a].arrival != pending[b].arrival) {
                           return pending[a].arrival < pending[b].arrival;
                         }
                         return pending[a].id < pending[b].id;
                       });
      return head_blocking(order, pending, free_nodes);
    case Discipline::kBackfill:
      return easy_backfill(pending, free_nodes, now, running);
  }
  return {};
}

std::vector<std::uint32_t> NodeAllocator::allocate(std::size_t n) {
  if (n > free_count()) {
    throw std::logic_error("NodeAllocator: allocate beyond free nodes");
  }
  std::vector<std::uint32_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < used_.size() && out.size() < n; ++i) {
    if (!used_[i]) {
      used_[i] = true;
      out.push_back(static_cast<std::uint32_t>(i));
    }
  }
  in_use_ += n;
  return out;
}

void NodeAllocator::release(const std::vector<std::uint32_t>& nodes) {
  for (const std::uint32_t i : nodes) {
    assert(used_.at(i));
    used_[i] = false;
  }
  in_use_ -= nodes.size();
}

}  // namespace sched
