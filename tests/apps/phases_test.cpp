// Tests for the applications' optional read-back phases (BTIO verify,
// AST restart) — the paper's note that these codes become read-intensive
// on restart.
#include <gtest/gtest.h>

#include "apps/ast.hpp"
#include "apps/btio.hpp"

namespace apps {
namespace {

TEST(BtioVerify, AddsAReadPass) {
  BtioConfig cfg;
  cfg.nprocs = 16;
  cfg.scale = 0.05;  // 2 dumps
  cfg.collective = true;
  const RunResult without = run_btio(cfg);
  cfg.verify = true;
  const RunResult with = run_btio(cfg);
  EXPECT_EQ(without.trace.summary(pfs::OpKind::kRead).count(), 0u);
  EXPECT_GT(with.trace.summary(pfs::OpKind::kRead).count(), 0u);
  EXPECT_EQ(with.trace.summary(pfs::OpKind::kRead).bytes,
            cfg.dump_bytes());  // exactly one dump read back
  EXPECT_GT(with.exec_time, without.exec_time);
}

TEST(BtioVerify, UnoptimizedVerifyIsSeekHeavyToo) {
  BtioConfig cfg;
  cfg.nprocs = 16;
  cfg.scale = 0.05;
  cfg.collective = false;
  cfg.verify = true;
  const RunResult r = run_btio(cfg);
  // One seek+read per pencil on top of the write seeks.
  const std::uint64_t pencils = 64 * 64;
  EXPECT_EQ(r.trace.summary(pfs::OpKind::kRead).count(), pencils);
  EXPECT_EQ(r.trace.summary(pfs::OpKind::kSeek).count(),
            pencils * (static_cast<std::uint64_t>(cfg.effective_dumps()) +
                       1));
}

TEST(AstRestart, MakesTheRunReadIntensiveUpFront) {
  AstConfig cfg;
  cfg.grid = 512;
  cfg.nprocs = 8;
  cfg.scale = 0.05;  // 2 dumps
  cfg.collective = true;
  const RunResult cold = run_ast(cfg);
  cfg.restart = true;
  const RunResult warm = run_ast(cfg);
  EXPECT_EQ(cold.trace.summary(pfs::OpKind::kRead).count(), 0u);
  EXPECT_GT(warm.trace.summary(pfs::OpKind::kRead).bytes, 0u);
  // The restart reads exactly one array snapshot.
  EXPECT_EQ(warm.trace.summary(pfs::OpKind::kRead).bytes,
            cfg.grid * cfg.grid * cfg.elem_bytes());
}

TEST(AstRestart, ChameleonRestartFunnelsThroughNodeZero) {
  AstConfig cfg;
  cfg.grid = 512;
  cfg.nprocs = 8;
  cfg.scale = 0.05;
  cfg.collective = false;
  cfg.restart = true;
  const RunResult r = run_ast(cfg);
  // One read per column of the snapshot, all performed by node 0.
  EXPECT_EQ(r.trace.summary(pfs::OpKind::kRead).count(), cfg.grid);
}

TEST(AstRestart, CollectiveRestartFarFasterThanChameleon) {
  AstConfig base;
  base.grid = 1024;
  base.nprocs = 16;
  base.scale = 0.05;
  base.restart = true;
  AstConfig cham = base;
  cham.collective = false;
  AstConfig coll = base;
  coll.collective = true;
  const RunResult a = run_ast(cham);
  const RunResult b = run_ast(coll);
  EXPECT_GT(a.trace.summary(pfs::OpKind::kRead).time(),
            5.0 * b.trace.summary(pfs::OpKind::kRead).time());
}

}  // namespace
}  // namespace apps
