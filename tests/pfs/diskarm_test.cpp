// Tests for the FIFO/SCAN disk arm.
#include "pfs/diskarm.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simkit/engine.hpp"

namespace pfs {
namespace {

hw::DiskParams slow_seek_disk() {
  hw::DiskParams p;
  p.track_to_track_seek_ms = 1.0;
  p.average_seek_ms = 20.0;
  p.rpm = 6000.0;
  p.transfer_mb_per_s = 50.0;
  p.controller_overhead_ms = 0.1;
  p.capacity_bytes = 1ULL << 30;
  return p;
}

/// Submit requests at scattered positions while the arm is busy with an
/// initial request; record the order they get served.
std::vector<std::uint64_t> service_order(bool scan,
                                         std::vector<std::uint64_t> offs) {
  simkit::Engine eng;
  DiskArm arm(eng, slow_seek_disk(), scan);
  std::vector<std::uint64_t> order;
  // Occupy the arm first so all others queue.
  eng.spawn([](DiskArm& a, std::vector<std::uint64_t>& out)
                -> simkit::Task<void> {
    co_await a.serve(0, 4096, hw::AccessKind::kRead);
    out.push_back(0);
  }(arm, order));
  for (std::uint64_t off : offs) {
    eng.spawn([](simkit::Engine& e, DiskArm& a, std::uint64_t off,
                 std::vector<std::uint64_t>& out) -> simkit::Task<void> {
      co_await e.delay(1e-6);  // arrive after the arm is busy
      co_await a.serve(off, 4096, hw::AccessKind::kRead);
      out.push_back(off);
    }(eng, arm, off, order));
  }
  eng.run();
  order.erase(order.begin());  // drop the primer
  return order;
}

TEST(DiskArm, FifoServesInArrivalOrder) {
  const std::vector<std::uint64_t> offs = {900 << 20, 10 << 20, 500 << 20,
                                           50 << 20};
  EXPECT_EQ(service_order(false, offs), offs);
  // Deeper than the ~1.9k waiters one arm queues under the 224-job
  // platform stream: 2048 scattered offsets (1237 is odd, so i * 1237
  // mod 2048 permutes them).
  std::vector<std::uint64_t> deep;
  for (std::uint64_t i = 0; i < 2048; ++i) {
    deep.push_back((i * 1237 % 2048) << 19);
  }
  EXPECT_EQ(service_order(false, deep), deep);
}

TEST(DiskArm, ScanServesInSweepOrder) {
  const std::vector<std::uint64_t> offs = {900 << 20, 10 << 20, 500 << 20,
                                           50 << 20};
  // Head starts near 0 after the primer: the upward sweep is sorted.
  EXPECT_EQ(service_order(true, offs),
            (std::vector<std::uint64_t>{10 << 20, 50 << 20, 500 << 20,
                                        900 << 20}));
}

TEST(DiskArm, ScanReversesAtTheEdge) {
  simkit::Engine eng;
  DiskArm arm(eng, slow_seek_disk(), true);
  std::vector<int> order;  // request ids, -1 = the primer
  // Prime the head high, then submit below-and-above requests.  Ids 0/3
  // tie at 900 MB (met sweeping up) and ids 2/4 tie at 300 MB (met
  // sweeping down): at equal positions the earlier arrival goes first.
  eng.spawn([](DiskArm& a, std::vector<int>& out) -> simkit::Task<void> {
    co_await a.serve(800ull << 20, 4096, hw::AccessKind::kRead);
    out.push_back(-1);
  }(arm, order));
  const std::uint64_t offs[] = {900ull << 20, 100ull << 20, 300ull << 20,
                                900ull << 20, 300ull << 20};
  for (int id = 0; id < 5; ++id) {
    eng.spawn([](simkit::Engine& e, DiskArm& a, std::uint64_t off, int id,
                 std::vector<int>& out) -> simkit::Task<void> {
      co_await e.delay(1e-6);
      co_await a.serve(off, 4096, hw::AccessKind::kRead);
      out.push_back(id);
    }(eng, arm, offs[id], id, order));
  }
  eng.run();
  // Up to 900 (0 before 3), then back down 300 (2 before 4), 100.
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 3, 2, 4, 1}));
}

TEST(DiskArm, ScanFinishesScatteredBatchFaster) {
  auto batch_time = [](bool scan) {
    simkit::Engine eng;
    DiskArm arm(eng, slow_seek_disk(), scan);
    // 32 requests in a deterministic shuffled order.
    for (int i = 0; i < 32; ++i) {
      const std::uint64_t off =
          (static_cast<std::uint64_t>(i) * 37 % 32) << 24;
      eng.spawn([](DiskArm& a, std::uint64_t off) -> simkit::Task<void> {
        co_await a.serve(off, 4096, hw::AccessKind::kRead);
      }(arm, off));
    }
    eng.run();
    return eng.now();
  };
  EXPECT_LT(batch_time(true), 0.7 * batch_time(false));
}

TEST(DiskArm, CountsServices) {
  simkit::Engine eng;
  DiskArm arm(eng, slow_seek_disk(), false);
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](DiskArm& a, int i) -> simkit::Task<void> {
      co_await a.serve(static_cast<std::uint64_t>(i) * 1000, 512,
                      hw::AccessKind::kWrite);
    }(arm, i));
  }
  eng.run();
  EXPECT_EQ(arm.services(), 5u);
  EXPECT_EQ(arm.queue_length(), 0u);
}

}  // namespace
}  // namespace pfs
