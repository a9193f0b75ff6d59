// The simulator's core promise: identical configurations replay
// bit-identically — across every application and the full I/O stack.
#include <gtest/gtest.h>

#include "apps/ast.hpp"
#include "apps/btio.hpp"
#include "apps/fft_app.hpp"
#include "apps/scf.hpp"
#include "apps/scf3.hpp"
#include "ckpt/ckpt.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace apps {
namespace {

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.exec_time, b.exec_time);  // exact, not NEAR: determinism
  EXPECT_EQ(a.io_time, b.io_time);
  EXPECT_EQ(a.compute_time, b.compute_time);
  EXPECT_EQ(a.io_bytes, b.io_bytes);
  EXPECT_EQ(a.io_calls, b.io_calls);
}

TEST(Determinism, Scf11) {
  ScfConfig cfg;
  cfg.version = ScfVersion::kPassionPrefetch;
  cfg.nprocs = 8;
  cfg.n_basis = 108;
  cfg.iterations = 5;
  cfg.scale = 0.1;
  expect_identical(run_scf11(cfg), run_scf11(cfg));
}

TEST(Determinism, Scf30) {
  Scf30Config cfg;
  cfg.nprocs = 8;
  cfg.cached_percent = 60.0;
  cfg.n_basis = 108;
  cfg.iterations = 5;
  cfg.scale = 0.1;
  expect_identical(run_scf30(cfg), run_scf30(cfg));
}

TEST(Determinism, Fft) {
  FftConfig cfg;
  cfg.n = 512;
  cfg.nprocs = 4;
  cfg.io_nodes = 2;
  cfg.mem_bytes = 1 << 20;
  expect_identical(run_fft(cfg), run_fft(cfg));
}

TEST(Determinism, Btio) {
  BtioConfig cfg;
  cfg.nprocs = 9;
  cfg.collective = true;
  cfg.scale = 0.05;
  expect_identical(run_btio(cfg), run_btio(cfg));
}

TEST(Determinism, Ast) {
  AstConfig cfg;
  cfg.grid = 512;
  cfg.nprocs = 8;
  cfg.collective = false;
  cfg.scale = 0.05;
  expect_identical(run_ast(cfg), run_ast(cfg));
}

// A faulty run — injected crashes, retries, restarts — must replay
// bit-identically too: the whole fault pipeline is seeded.
TEST(Determinism, FaultyCheckpointRestartRun) {
  auto run_once = [] {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
    fault::InjectionPlan plan =
        fault::InjectionPlan::poisson_node_crashes(2, 0.2, 0.05, 500.0, 11);
    fault::Injector injector(std::move(plan));
    pfs::StripedFs fs(machine, &injector);
    ckpt::Workload w;
    w.nprocs = 4;
    w.steps = 8;
    w.flops_per_rank_step = 1e6;
    w.io = ckpt::StepIo::kPrivateRead;
    w.io_bytes_per_rank_step = 96 * 1024;
    w.io_chunk_bytes = 32 * 1024;
    w.prologue_writes_private = true;
    w.state_bytes_per_rank = 64 * 1024;
    w.backed_state = true;
    ckpt::Options opt;
    opt.ckpt_interval_steps = 2;
    opt.retry.max_attempts = 3;
    return ckpt::run(machine, fs, &injector, w, opt);
  };
  const ckpt::Report a = run_once();
  const ckpt::Report b = run_once();
  // The crashes land inside the run: some operations retry, some exhaust
  // the ladder and roll the job back.
  EXPECT_GT(a.retry.retries, 0u);
  EXPECT_GT(a.restarts, 0);
  EXPECT_EQ(a.exec_time, b.exec_time);  // exact, not NEAR: determinism
  EXPECT_EQ(a.ckpt_overhead, b.ckpt_overhead);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(a.recovery_time, b.recovery_time);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retry.attempts, b.retry.attempts);
  EXPECT_EQ(a.retry.retries, b.retry.retries);
  EXPECT_EQ(a.retry.backoff_time, b.retry.backoff_time);
}

TEST(Determinism, FftDataBackedOutputsIdentical) {
  FftConfig cfg;
  cfg.n = 32;
  cfg.nprocs = 2;
  cfg.io_nodes = 2;
  cfg.mem_bytes = 32 * 1024;
  std::vector<std::byte> input(32 * 32 * 16, std::byte{0x5A});
  EXPECT_EQ(run_fft_collect_output(cfg, input),
            run_fft_collect_output(cfg, input));
}

}  // namespace
}  // namespace apps
