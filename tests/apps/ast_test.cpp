// Tests for the astrophysics application (Table 4 properties).
#include "apps/ast.hpp"

#include <gtest/gtest.h>

namespace apps {
namespace {

AstConfig quick(int nprocs, bool collective, std::size_t io_nodes = 16) {
  AstConfig cfg;
  cfg.grid = 1024;  // scaled-down grid for tests
  cfg.nprocs = nprocs;
  cfg.collective = collective;
  cfg.io_nodes = io_nodes;
  cfg.scale = 0.1;  // 4 dumps
  return cfg;
}

TEST(Ast, CollectiveIoDramaticallyFaster) {
  const RunResult unopt = run_ast(quick(16, false));
  const RunResult opt = run_ast(quick(16, true));
  // Table 4 at 16 procs: 2557 s vs 428 s (~6x).  Require a clear win.
  EXPECT_GT(unopt.exec_time / opt.exec_time, 2.0);
  EXPECT_GT(unopt.io_time / opt.io_time, 5.0);
}

TEST(Ast, IoNodeCountMattersLittle) {
  const RunResult u16 = run_ast(quick(16, false, 16));
  const RunResult u64 = run_ast(quick(16, false, 64));
  const RunResult o16 = run_ast(quick(16, true, 16));
  const RunResult o64 = run_ast(quick(16, true, 64));
  // Table 4: 16 vs 64 I/O nodes changes totals by a few percent only.
  EXPECT_LT(u16.exec_time / u64.exec_time, 1.15);
  EXPECT_LT(o16.exec_time / o64.exec_time, 1.15);
  // But both columns agree the collective version wins.
  EXPECT_LT(o64.exec_time, u64.exec_time);
}

TEST(Ast, UnoptimizedChunksPerColumn) {
  AstConfig cfg = quick(16, false);
  const RunResult r = run_ast(cfg);
  // Node 0 writes one chunk per column per array per dump.
  const std::uint64_t expected =
      cfg.grid * static_cast<std::uint64_t>(cfg.arrays_per_dump) *
      static_cast<std::uint64_t>(cfg.effective_dumps());
  EXPECT_EQ(r.trace.summary(pfs::OpKind::kWrite).count(), expected);
}

TEST(Ast, VolumeConservedAcrossVersions) {
  const RunResult unopt = run_ast(quick(8, false));
  const RunResult opt = run_ast(quick(8, true));
  EXPECT_EQ(unopt.io_bytes, opt.io_bytes);
  AstConfig cfg = quick(8, false);
  EXPECT_EQ(unopt.io_bytes,
            cfg.dump_bytes() *
                static_cast<std::uint64_t>(cfg.effective_dumps()));
}

TEST(Ast, OptimizedScalesThenFlattens) {
  const RunResult p16 = run_ast(quick(16, true));
  const RunResult p64 = run_ast(quick(64, true));
  // Compute-dominated at small P: good scaling 16 -> 64.
  EXPECT_GT(p16.exec_time / p64.exec_time, 2.0);
}

TEST(Ast, NonSquareRankCountsFactorCorrectly) {
  // 32 = 8x4 and 128 = 16x8 must run (Table 4's processor axis).
  const RunResult r32 = run_ast(quick(32, true));
  const RunResult r128 = run_ast(quick(128, true));
  EXPECT_GT(r32.exec_time, 0.0);
  EXPECT_GT(r128.exec_time, 0.0);
  EXPECT_LT(r128.compute_time / 128.0, r32.compute_time / 32.0 * 1.05);
}

}  // namespace
}  // namespace apps
