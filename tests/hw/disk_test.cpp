// Tests for the disk service-time model.
#include "hw/disk.hpp"

#include <gtest/gtest.h>

namespace hw {
namespace {

DiskParams test_params() {
  DiskParams p;
  p.track_to_track_seek_ms = 1.0;
  p.average_seek_ms = 10.0;
  p.rpm = 6000.0;  // 10 ms/rev -> 5 ms avg rotational latency
  p.transfer_mb_per_s = 10.0;
  p.controller_overhead_ms = 0.5;
  p.capacity_bytes = 1ULL << 30;
  return p;
}

TEST(DiskModel, SequentialAccessSkipsSeekAndRotation) {
  DiskModel d(test_params());
  const auto first = d.access(0, 64 * 1024, AccessKind::kRead);
  const auto second = d.access(64 * 1024, 64 * 1024, AccessKind::kRead);
  // First access from parked head at 0 is sequential too (head==0).
  const double xfer = 64.0 * 1024.0 / 10e6;
  EXPECT_NEAR(first, 0.5e-3 + xfer, 1e-9);
  EXPECT_NEAR(second, 0.5e-3 + xfer, 1e-9);
}

TEST(DiskModel, RandomAccessPaysSeekAndRotation) {
  DiskModel d(test_params());
  (void)d.access(0, 4096, AccessKind::kRead);
  const auto far = d.access(512ULL << 20, 4096, AccessKind::kRead);
  // Must include at least half a revolution (5 ms) + track-to-track.
  EXPECT_GT(far, 5e-3 + 1e-3);
}

TEST(DiskModel, SeekTimeGrowsWithDistance) {
  DiskModel d(test_params());
  (void)d.access(0, 0, AccessKind::kRead);
  const auto near = d.access(1ULL << 20, 4096, AccessKind::kRead);
  DiskModel d2(test_params());
  (void)d2.access(0, 0, AccessKind::kRead);
  const auto far = d2.access(900ULL << 20, 4096, AccessKind::kRead);
  EXPECT_LT(near, far);
}

TEST(DiskModel, TransferScalesLinearlyInBytes) {
  DiskModel d(test_params());
  const auto small = d.access(0, 1 << 20, AccessKind::kRead);
  DiskModel d2(test_params());
  const auto big = d2.access(0, 4 << 20, AccessKind::kRead);
  // Remove the fixed overhead, then ratio should be 4.
  EXPECT_NEAR((big - 0.5e-3) / (small - 0.5e-3), 4.0, 0.01);
}

TEST(DiskModel, WritesSlightlySlowerThanReads) {
  DiskModel dr(test_params());
  DiskModel dw(test_params());
  const auto r = dr.access(0, 1 << 20, AccessKind::kRead);
  const auto w = dw.access(0, 1 << 20, AccessKind::kWrite);
  EXPECT_GT(w, r);
  EXPECT_NEAR(w / r, 1.05, 0.001);
}

TEST(DiskModel, HeadAdvancesToEndOfRequest) {
  DiskModel d(test_params());
  (void)d.access(1000, 500, AccessKind::kRead);
  EXPECT_EQ(d.head_position(), 1500u);
  EXPECT_TRUE(d.sequential_at(1500));
  EXPECT_FALSE(d.sequential_at(0));
}

TEST(DiskModel, ManySmallRandomSlowerThanOneBigSequential) {
  // The core phenomenon behind the paper's collective-I/O wins.
  DiskModel d_small(test_params());
  double t_small = 0.0;
  for (int i = 0; i < 64; ++i) {
    t_small += d_small.access(static_cast<std::uint64_t>(i) * (8 << 20),
                              16 * 1024, AccessKind::kRead);
  }
  DiskModel d_big(test_params());
  const double t_big = d_big.access(0, 64 * 16 * 1024, AccessKind::kRead);
  EXPECT_GT(t_small, 5.0 * t_big);
}

TEST(DiskModel, PresetsAreSane) {
  const auto ssa = DiskParams::sp2_ssa_9gb();
  EXPECT_EQ(ssa.capacity_bytes, 9ULL << 30);
  const auto raid = DiskParams::paragon_raid3();
  // RAID-3 streams across spindles (faster transfer); a single SSA disk
  // seeks faster.
  EXPECT_GT(raid.transfer_mb_per_s, ssa.transfer_mb_per_s);
  EXPECT_LT(ssa.average_seek_ms, raid.average_seek_ms);
}

}  // namespace
}  // namespace hw
