// Tests for the queue disciplines (pure select_jobs decisions) and the
// node allocator.
#include "sched/queue.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace {

sched::PendingView job(int id, int nodes, int priority = 0,
                       double arrival = 0.0, double est = 10.0) {
  return {id, nodes, priority, arrival, est};
}

TEST(QueueFcfs, StartsInOrderUntilTheHeadBlocks) {
  const std::vector<sched::PendingView> pending = {
      job(0, 2), job(1, 2), job(2, 8), job(3, 1)};
  // 2+2 fit in 5; the 8-node job blocks; the 1-node job must NOT jump it.
  const auto sel = sched::select_jobs(sched::Discipline::kFcfs, pending,
                                      /*free_nodes=*/5, 0.0, {});
  EXPECT_EQ(sel, (std::vector<std::size_t>{0, 1}));
}

TEST(QueuePriority, OrdersByPriorityThenArrival) {
  const std::vector<sched::PendingView> pending = {
      job(0, 2, /*priority=*/0, /*arrival=*/1.0),
      job(1, 2, /*priority=*/2, /*arrival=*/3.0),
      job(2, 2, /*priority=*/2, /*arrival=*/2.0),
      job(3, 2, /*priority=*/1, /*arrival=*/0.0)};
  const auto sel = sched::select_jobs(sched::Discipline::kPriority, pending,
                                      /*free_nodes=*/6, 0.0, {});
  // Highest priority first, ties by earlier arrival; three 2-node jobs
  // fit in 6 nodes, the fourth (priority 0) blocks on nothing but space.
  EXPECT_EQ(sel, (std::vector<std::size_t>{2, 1, 3}));
}

TEST(QueueBackfill, FillsAroundAReservedHead) {
  // 6 free nodes.  Head wants 8 -> blocked.  One 8-node job is running
  // until t=10, so the head's reservation (shadow time) is 10 with
  // 14 - 8 = 6 spare nodes.
  const std::vector<sched::PendingView> pending = {
      job(0, 8, 0, 0.0, /*est=*/30.0),   // blocked head
      job(1, 2, 0, 1.0, /*est=*/5.0),    // ends by the shadow -> backfills
      job(2, 4, 0, 2.0, /*est=*/50.0),   // overruns, but fits the spare
      job(3, 2, 0, 3.0, /*est=*/50.0)};  // overruns and no free nodes left
  std::vector<sched::RunningView> running = {{8, /*est_finish=*/10.0}};
  const auto sel = sched::select_jobs(sched::Discipline::kBackfill, pending,
                                      /*free_nodes=*/6, 0.0, running);
  EXPECT_EQ(sel, (std::vector<std::size_t>{1, 2}));
}

TEST(QueueBackfill, NeverDelaysTheHeadByEstimate) {
  // Spare after the head's reservation: 5+8-9 = 4 nodes.  A 5-node job
  // that overruns the shadow would delay the head -> must not start,
  // even though it fits the free nodes right now.
  const std::vector<sched::PendingView> pending = {
      job(0, 9, 0, 0.0, 30.0),
      job(1, 5, 0, 1.0, /*est=*/50.0)};
  std::vector<sched::RunningView> running = {{8, 10.0}};
  const auto sel = sched::select_jobs(sched::Discipline::kBackfill, pending,
                                      /*free_nodes=*/5, 0.0, running);
  EXPECT_TRUE(sel.empty());
}

TEST(QueueBackfill, UnreservableHeadStopsBackfill) {
  // The head wants more nodes than the machine will ever free: no shadow
  // exists, so nothing may jump it (conservative, keeps it live).
  const std::vector<sched::PendingView> pending = {
      job(0, 32, 0, 0.0, 30.0), job(1, 1, 0, 1.0, 1.0)};
  std::vector<sched::RunningView> running = {{8, 10.0}};
  const auto sel = sched::select_jobs(sched::Discipline::kBackfill, pending,
                                      /*free_nodes=*/4, 0.0, running);
  EXPECT_TRUE(sel.empty());
}

TEST(QueueBackfill, PureFcfsWhenNothingBlocks) {
  const std::vector<sched::PendingView> pending = {job(0, 2), job(1, 2)};
  const auto sel = sched::select_jobs(sched::Discipline::kBackfill, pending,
                                      /*free_nodes=*/8, 0.0, {});
  EXPECT_EQ(sel, (std::vector<std::size_t>{0, 1}));
}

TEST(NodeAllocator, LowestIndexFirstAndReuse) {
  sched::NodeAllocator alloc(5);
  EXPECT_EQ(alloc.total(), 5u);
  const auto a = alloc.allocate(3);
  EXPECT_EQ(a, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(alloc.free_count(), 2u);
  alloc.release({1});
  // Freed node 1 is the lowest again and is handed out first.
  const auto b = alloc.allocate(2);
  EXPECT_EQ(b, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(alloc.free_count(), 1u);
}

TEST(NodeAllocator, ThrowsOnOverAllocation) {
  sched::NodeAllocator alloc(4);
  alloc.allocate(3);
  EXPECT_THROW(alloc.allocate(2), std::logic_error);
}

}  // namespace
