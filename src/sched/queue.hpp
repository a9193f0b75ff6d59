// sched/queue.hpp — node allocation and pluggable queue disciplines.
//
// The scheduler's decision problem is kept as a pure function: given the
// pending queue (arrival order), the free-node count, and the running
// jobs' estimated finish times, which pending jobs start *now*?  Keeping
// it side-effect-free makes every discipline unit-testable and keeps the
// platform simulation deterministic — the decision depends only on
// simulated state, never on host state.
#pragma once

#include <cstdint>
#include <vector>

#include "simkit/time.hpp"

namespace sched {

enum class Discipline : std::uint8_t {
  kFcfs,      // strict arrival order; the head blocks the queue
  kPriority,  // highest priority first (ties by arrival); head blocks
  kBackfill,  // EASY: FCFS head holds a reservation, later jobs may jump
              // ahead iff they cannot delay it (by runtime estimate)
};

const char* to_string(Discipline d);

/// What a discipline sees of a pending job.
struct PendingView {
  int id = 0;
  int nodes = 1;
  int priority = 0;
  simkit::Time arrival = 0.0;
  double est_runtime_s = 0.0;  // contention-free estimate
};

/// What a discipline sees of a running job.
struct RunningView {
  int nodes = 1;
  simkit::Time est_finish = 0.0;
};

/// Decide which pending jobs (indices into `pending`, which is in
/// arrival order) start now, in start order.  `free_nodes` is the
/// currently unallocated node count.
std::vector<std::size_t> select_jobs(Discipline d,
                                     const std::vector<PendingView>& pending,
                                     std::size_t free_nodes,
                                     simkit::Time now,
                                     std::vector<RunningView> running);

/// Lowest-index-first allocator over the compute partition.  Jobs get
/// concrete node indices (their PFS client identities), so which clients
/// contend at which I/O nodes is reproducible.
class NodeAllocator {
 public:
  explicit NodeAllocator(std::size_t total) : used_(total, false) {}

  std::size_t total() const noexcept { return used_.size(); }
  std::size_t free_count() const noexcept { return used_.size() - in_use_; }

  /// Take the `n` lowest free node indices (requires n <= free_count()).
  std::vector<std::uint32_t> allocate(std::size_t n);
  void release(const std::vector<std::uint32_t>& nodes);

 private:
  std::vector<bool> used_;
  std::size_t in_use_ = 0;
};

}  // namespace sched
