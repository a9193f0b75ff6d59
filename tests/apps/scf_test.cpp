// Tests for the SCF 1.1 workload model.
#include "apps/scf.hpp"

#include <gtest/gtest.h>

namespace apps {
namespace {

ScfConfig small_cfg(ScfVersion v) {
  ScfConfig cfg;
  cfg.version = v;
  cfg.nprocs = 4;
  cfg.io_nodes = 12;
  cfg.n_basis = 108;  // SMALL input
  cfg.iterations = 11;  // 1 write pass + 10 read passes, like the paper
  cfg.scale = 0.4;  // enough volume that per-file costs dominate opens
  return cfg;
}

TEST(Scf11, ReadDominatedLikeTable2) {
  const RunResult r = run_scf11(small_cfg(ScfVersion::kOriginal));
  const auto& reads = r.trace.summary(pfs::OpKind::kRead);
  const auto& writes = r.trace.summary(pfs::OpKind::kWrite);
  // Table 2: reads are ~95% of I/O time and several times the write
  // volume (iterations-1 read passes over the written file).
  EXPECT_GT(reads.time(), 0.80 * r.io_time);
  EXPECT_EQ(reads.bytes, writes.bytes * 10);  // 1 write pass, 10 read passes
  EXPECT_GT(r.io_time, 0.0);
  EXPECT_GT(r.exec_time, 0.0);
}

TEST(Scf11, PassionInterfaceBeatsOriginal) {
  const RunResult orig = run_scf11(small_cfg(ScfVersion::kOriginal));
  const RunResult pass = run_scf11(small_cfg(ScfVersion::kPassion));
  // Table 2 vs 3: total I/O time drops by ~1.8x; exec follows.
  EXPECT_GT(orig.io_time / pass.io_time, 1.3);
  EXPECT_LT(pass.exec_time, orig.exec_time);
  // Same data volume moved in both.
  EXPECT_EQ(orig.trace.summary(pfs::OpKind::kRead).bytes,
            pass.trace.summary(pfs::OpKind::kRead).bytes);
}

TEST(Scf11, PassionSeeksManyButCheap) {
  const RunResult orig = run_scf11(small_cfg(ScfVersion::kOriginal));
  const RunResult pass = run_scf11(small_cfg(ScfVersion::kPassion));
  const auto& oseek = orig.trace.summary(pfs::OpKind::kSeek);
  const auto& pseek = pass.trace.summary(pfs::OpKind::kSeek);
  // PASSION seeks before every read (Table 3: 604k seeks vs 994) but each
  // is an order of magnitude cheaper.
  EXPECT_GT(pseek.count(), 20 * oseek.count());
  EXPECT_GT(oseek.latency.mean() / pseek.latency.mean(), 5.0);
}

TEST(Scf11, PrefetchBeatsPlainPassion) {
  const RunResult pass = run_scf11(small_cfg(ScfVersion::kPassion));
  const RunResult pref = run_scf11(small_cfg(ScfVersion::kPassionPrefetch));
  EXPECT_LT(pref.exec_time, pass.exec_time);
  EXPECT_LT(pref.io_time, pass.io_time);  // wait+copy < blocking read
}

TEST(Scf11, ProblemSizeScalesVolume) {
  ScfConfig s = small_cfg(ScfVersion::kPassion);
  ScfConfig m = s;
  m.n_basis = 140;
  const RunResult rs = run_scf11(s);
  const RunResult rm = run_scf11(m);
  // N^4 scaling: (140/108)^4 ~ 2.8x the integrals and bytes.
  const double ratio =
      static_cast<double>(rm.io_bytes) / static_cast<double>(rs.io_bytes);
  EXPECT_NEAR(ratio, 2.8, 0.3);
  EXPECT_GT(rm.exec_time, rs.exec_time);
}

TEST(Scf11, OpCountsMatchChunking) {
  ScfConfig cfg = small_cfg(ScfVersion::kPassion);
  const RunResult r = run_scf11(cfg);
  // Each rank: ceil(bytes/chunk) writes, (iterations-1) x that reads.
  const auto& reads = r.trace.summary(pfs::OpKind::kRead);
  const auto& writes = r.trace.summary(pfs::OpKind::kWrite);
  EXPECT_EQ(reads.count(),
            writes.count() * static_cast<std::uint64_t>(cfg.iterations - 1));
  EXPECT_GE(writes.count(), 4u);  // at least one chunk per rank
}

TEST(Scf11, DirectVersionDoesNoIo) {
  const RunResult r = run_scf11(small_cfg(ScfVersion::kDirect));
  EXPECT_EQ(r.io_calls, 0u);
  EXPECT_EQ(r.io_bytes, 0u);
  EXPECT_GT(r.compute_time, 0.0);
}

TEST(Scf11, DiskBeatsDirectAtSmallScaleOnly) {
  // The paper: users run the disk-based version at small P but fall back
  // to recomputation at large P on a starved I/O partition.
  auto run = [](ScfVersion v, int p) {
    ScfConfig cfg = small_cfg(v);
    cfg.n_basis = 285;
    cfg.nprocs = p;
    cfg.io_nodes = 12;
    cfg.iterations = 12;
    cfg.scale = 0.15;
    return run_scf11(cfg).exec_time;
  };
  EXPECT_LT(run(ScfVersion::kPassionPrefetch, 4),
            run(ScfVersion::kDirect, 4));
  EXPECT_LT(run(ScfVersion::kDirect, 256),
            run(ScfVersion::kPassionPrefetch, 256));
}

TEST(Scf11, MoreIoNodesHelpUnoptimizedAtScale) {
  ScfConfig few = small_cfg(ScfVersion::kOriginal);
  few.nprocs = 32;
  few.io_nodes = 4;
  ScfConfig many = few;
  many.io_nodes = 16;
  const RunResult rf = run_scf11(few);
  const RunResult rm = run_scf11(many);
  EXPECT_LT(rm.exec_time, rf.exec_time);  // Figure 3's effect
}

}  // namespace
}  // namespace apps
