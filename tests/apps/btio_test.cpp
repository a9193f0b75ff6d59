// Tests for BTIO (Figure 6/7 properties).
#include "apps/btio.hpp"

#include <gtest/gtest.h>

namespace apps {
namespace {

BtioConfig quick(int nprocs, bool collective) {
  BtioConfig cfg;
  cfg.nprocs = nprocs;
  cfg.collective = collective;
  cfg.scale = 0.1;  // 4 dumps
  return cfg;
}

TEST(Btio, CollectiveReducesIoTime) {
  const RunResult unopt = run_btio(quick(16, false));
  const RunResult opt = run_btio(quick(16, true));
  EXPECT_LT(opt.io_time, unopt.io_time * 0.5);
  EXPECT_LT(opt.exec_time, unopt.exec_time);
  // Same solution volume lands on disk.
  EXPECT_EQ(unopt.io_bytes, opt.io_bytes);
}

TEST(Btio, UnoptimizedIsSeekHeavy) {
  const RunResult unopt = run_btio(quick(16, false));
  const RunResult opt = run_btio(quick(16, true));
  // Paper: "the code contains a lot of seek operations".
  EXPECT_GT(unopt.trace.summary(pfs::OpKind::kSeek).count(), 1000u);
  EXPECT_EQ(opt.trace.summary(pfs::OpKind::kSeek).count(), 0u);
  // One collective write op per dump per rank vs one per pencil.
  EXPECT_GT(unopt.trace.summary(pfs::OpKind::kWrite).count(),
            20 * opt.trace.summary(pfs::OpKind::kWrite).count());
}

TEST(Btio, BandwidthGapMatchesFigure7Shape) {
  const RunResult unopt = run_btio(quick(16, false));
  const RunResult opt = run_btio(quick(16, true));
  // Paper: original 0.97-1.5 MB/s vs optimized 6.6-31.4 MB/s — at least
  // 4x apart everywhere.
  EXPECT_GT(opt.io_bandwidth_mb_s(), 4.0 * unopt.io_bandwidth_mb_s());
}

TEST(Btio, ClassBIsLarger) {
  BtioConfig a = quick(4, true);
  BtioConfig b = a;
  b.problem_class = 'B';
  const RunResult ra = run_btio(a);
  const RunResult rb = run_btio(b);
  EXPECT_GT(rb.io_bytes, 3 * ra.io_bytes);  // (102/64)^3 ~ 4x
}

TEST(Btio, DumpVolumeMatchesGrid) {
  BtioConfig cfg = quick(4, true);
  const RunResult r = run_btio(cfg);
  EXPECT_EQ(r.io_bytes,
            cfg.dump_bytes() *
                static_cast<std::uint64_t>(cfg.effective_dumps()));
  // Class A dump = 64^3 cells x 40 B = ~10.5 MB (paper: 408.9 MB / 40).
  EXPECT_EQ(cfg.dump_bytes(), 64ull * 64 * 64 * 40);
}

TEST(Btio, ComputeScalesDownWithProcs) {
  const RunResult p4 = run_btio(quick(4, true));
  const RunResult p16 = run_btio(quick(16, true));
  // Total solver work (summed across ranks) is invariant; wall time drops.
  EXPECT_NEAR(p4.compute_time, p16.compute_time, p4.compute_time * 0.01);
  EXPECT_LT(p16.exec_time, p4.exec_time);
}

}  // namespace
}  // namespace apps
