// Checkpoint/restart engine: fault-free behavior, crash recovery with
// state verification, and the lost-work/checkpoint-interval tradeoff.
#include "ckpt/ckpt.hpp"

#include <gtest/gtest.h>

#include "ckpt/workloads.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace ckpt {
namespace {

Workload small_workload() {
  Workload w;
  w.name = "unit";
  w.nprocs = 4;
  w.steps = 8;
  w.flops_per_rank_step = 1e6;
  w.io = StepIo::kPrivateRead;
  w.io_bytes_per_rank_step = 96 * 1024;
  w.io_chunk_bytes = 32 * 1024;
  w.prologue_writes_private = true;
  w.state_bytes_per_rank = 64 * 1024;
  w.state_pieces = 4;
  w.backed_state = true;
  return w;
}

Report run_with(fault::InjectionPlan plan, Options opt,
                Workload w = small_workload()) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
  fault::Injector injector(std::move(plan));
  pfs::StripedFs fs(machine, &injector);
  return run(machine, fs, &injector, std::move(w), std::move(opt));
}

TEST(Ckpt, FaultFreeRunCompletesWithCleanAccounting) {
  Options opt;
  opt.ckpt_interval_steps = 2;
  const Report rep = run_with(fault::InjectionPlan{}, opt);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.state_verified);
  EXPECT_EQ(rep.restarts, 0);
  // 8 steps, every 2, none after the final step: checkpoints at 2, 4, 6.
  EXPECT_EQ(rep.checkpoints, 3);
  EXPECT_EQ(rep.ckpt_bytes, 3ull * 4 * 64 * 1024);
  EXPECT_GT(rep.exec_time, 0.0);
  EXPECT_GT(rep.ckpt_overhead, 0.0);
  EXPECT_EQ(rep.lost_work, 0.0);
  EXPECT_EQ(rep.recovery_time, 0.0);
  EXPECT_EQ(rep.retry.retries, 0u);
}

TEST(Ckpt, IntervalZeroDisablesCheckpointing) {
  Options opt;
  opt.ckpt_interval_steps = 0;
  const Report rep = run_with(fault::InjectionPlan{}, opt);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.checkpoints, 0);
  EXPECT_EQ(rep.ckpt_overhead, 0.0);
}

// Fault-free duration of small_workload() with interval-2 checkpoints:
// crash windows are placed relative to it so they always land mid-run.
double fault_free_exec() {
  static const double t = [] {
    Options opt;
    opt.ckpt_interval_steps = 2;
    return run_with(fault::InjectionPlan{}, opt).exec_time;
  }();
  return t;
}

// Both servers crash at ~40% of the fault-free run (after the first
// committed checkpoint) and stay down past its end, so no request
// survives until the reboot edge.
fault::InjectionPlan mid_run_outage() {
  const double t = fault_free_exec();
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.4 * t, 2.0 * t);
  plan.crash_node(1, 0.4 * t, 2.0 * t);
  return plan;
}

TEST(Ckpt, CrashForcesRestartFromVerifiedCheckpoint) {
  // A long outage mid-run: whichever rank is in its step I/O exhausts the
  // ladder, everyone agrees to fail, the job waits out the reboot and
  // restores from the last committed checkpoint.
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.retry.max_attempts = 3;
  const Report rep = run_with(mid_run_outage(), opt);
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.restarts, 1);
  EXPECT_TRUE(rep.state_verified)
      << "restored state must match the checkpointed step's pattern";
  EXPECT_GT(rep.lost_work, 0.0);
  EXPECT_GT(rep.recovery_time, 0.0);
  EXPECT_GT(rep.retry.exhausted, 0u);
}

TEST(Ckpt, CheckpointingBoundsLostWorkUnderCrashes) {
  const fault::InjectionPlan plan = mid_run_outage();
  Options with_ckpt;
  with_ckpt.ckpt_interval_steps = 2;
  with_ckpt.retry.max_attempts = 3;
  Options without;
  without.ckpt_interval_steps = 0;
  without.retry.max_attempts = 3;
  const Report a = run_with(plan, with_ckpt);
  const Report b = run_with(plan, without);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_GT(b.lost_work, a.lost_work)
      << "without checkpoints every crash rolls back to step 0";
}

// state_bytes_per_rank not divisible by state_pieces: the interleaved
// layout spreads the remainder across pieces, so neighbouring ranks'
// extents must not overlap — the restart verification would catch the
// corruption as a pattern mismatch.
TEST(Ckpt, NonDivisibleStateLayoutRestoresVerifiedState) {
  Workload w = small_workload();
  w.state_bytes_per_rank = 64 * 1024 + 13;
  w.state_pieces = 5;
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.retry.max_attempts = 3;
  const double t = run_with(fault::InjectionPlan{}, opt, w).exec_time;
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.4 * t, 2.0 * t);
  plan.crash_node(1, 0.4 * t, 2.0 * t);
  const Report rep = run_with(plan, opt, w);
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.restarts, 1);
  EXPECT_TRUE(rep.state_verified)
      << "remainder handling must keep per-rank extents disjoint";
}

TEST(Ckpt, PrologueOnlyRunsWhenWorkloadAsksForIt) {
  Options opt;
  opt.ckpt_interval_steps = 0;
  Workload without = small_workload();
  without.prologue_writes_private = false;  // files are pre-existing input
  const Report a = run_with(fault::InjectionPlan{}, opt);
  const Report b = run_with(fault::InjectionPlan{}, opt, without);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  // Wall time is no proxy here (the prologue write warms server caches),
  // but the issued-operation count shows the prologue was skipped.
  EXPECT_LT(b.retry.attempts, a.retry.attempts)
      << "without the flag no prologue writes may be issued";
}

TEST(Ckpt, ReplicatedCheckpointDoublesVolume) {
  Options opt;
  opt.ckpt_interval_steps = 4;
  opt.replicate_checkpoint = true;
  const Report rep = run_with(fault::InjectionPlan{}, opt);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.checkpoints, 1);  // step 4 only (8 is the last step)
  EXPECT_EQ(rep.ckpt_bytes, 2ull * 4 * 64 * 1024);
}

TEST(Ckpt, BtioWorkloadRunsCollectiveDumps) {
  apps::BtioConfig cfg;
  cfg.nprocs = 4;
  cfg.dumps = 6;
  cfg.scale = 1.0;
  Workload w = btio_workload(cfg);
  w.steps = 6;
  w.backed_state = true;
  w.state_pieces = 4;
  w.state_bytes_per_rank = 64 * 1024;  // keep the unit test light
  w.io_bytes_per_rank_step = 128 * 1024;
  Options opt;
  opt.ckpt_interval_steps = 2;
  const Report rep = run_with(fault::InjectionPlan{}, opt, w);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.state_verified);
  EXPECT_EQ(rep.checkpoints, 2);
}

TEST(Ckpt, ScfWorkloadAdapterDerivesStepIo) {
  apps::ScfConfig cfg;
  cfg.nprocs = 8;
  cfg.iterations = 10;
  const Workload w = scf11_workload(cfg);
  EXPECT_EQ(w.nprocs, 8);
  EXPECT_EQ(w.steps, 9);
  EXPECT_EQ(w.io, StepIo::kPrivateRead);
  EXPECT_TRUE(w.prologue_writes_private);
  EXPECT_GT(w.io_bytes_per_rank_step, 0u);
  EXPECT_GT(w.state_bytes_per_rank, 0u);
}

// -- correlated failure domains + health-aware recovery --------------------

// 4 I/O nodes behind 2 rack switches (fan-in 2): domain 0 = {0, 1},
// domain 1 = {2, 3}.
hw::MachineConfig domain_config() {
  hw::MachineConfig cfg = hw::MachineConfig::paragon_small(4, 4);
  cfg.io_nodes_per_switch = 2;
  return cfg;
}

struct DomainRun {
  Report rep;
  std::vector<std::uint32_t> ckpt_servers;
  std::vector<std::uint32_t> mirror_servers;
};

DomainRun run_domains(fault::InjectionPlan plan, Options opt) {
  simkit::Engine eng;
  hw::Machine machine(eng, domain_config());
  fault::Injector injector(std::move(plan));
  pfs::StripedFs fs(machine, &injector);
  DomainRun out;
  out.rep = run(machine, fs, &injector, small_workload(), std::move(opt));
  // run() creates the checkpoint primary first, then the mirror.
  out.ckpt_servers = fs.stripe_map(0).server_list();
  if (fs.file_name(1) == "ckpt.unit.mirror") {
    out.mirror_servers = fs.stripe_map(1).server_list();
  }
  return out;
}

Options domain_options(Options::Placement placement) {
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.retry.max_attempts = 3;
  opt.replicate_checkpoint = true;
  opt.placement = placement;
  return opt;
}

// Fault-free duration on the domain machine: the scrubbing outage is
// placed after the first committed checkpoint and ends before the
// restarted job needs the scrubbed nodes again.
double domain_fault_free_exec() {
  static const double t =
      run_domains(fault::InjectionPlan{},
                  domain_options(Options::Placement::kOtherDomain))
          .rep.exec_time;
  return t;
}

// Rack switch 0 dies at ~45% of the fault-free run and its nodes reboot
// with scrubbed disks (a power event, not a transient hiccup).
fault::InjectionPlan rack0_scrub_outage() {
  const double t = domain_fault_free_exec();
  fault::InjectionPlan plan;
  plan.outage_domain(0, {0, 1}, 0.45 * t, 1.5 * t, /*scrub=*/true);
  return plan;
}

TEST(Ckpt, SameDomainPlacementLosesScrubbedCheckpoint) {
  // Primary AND mirror behind rack switch 0: one scrubbing power event
  // destroys every copy of the committed checkpoint, and the job has to
  // restart from step 0.
  const DomainRun dr = run_domains(rack0_scrub_outage(),
                                   domain_options(Options::Placement::kSameDomain));
  for (const std::uint32_t s : dr.ckpt_servers) EXPECT_LT(s, 2u);
  for (const std::uint32_t s : dr.mirror_servers) EXPECT_LT(s, 2u);
  EXPECT_TRUE(dr.rep.completed);
  EXPECT_TRUE(dr.rep.state_verified);
  EXPECT_GE(dr.rep.restarts, 1);
  EXPECT_GE(dr.rep.lost_checkpoints, 1)
      << "both copies sat in the scrubbed domain";
}

TEST(Ckpt, OtherDomainMirrorSurvivesScrubAndHealthAwareRepair) {
  // Mirror behind the other rack switch: the same power event destroys
  // only the primary, the restore reads the mirror, and health-aware
  // recovery re-mirrors the scrubbed copy before computing on.
  Options opt = domain_options(Options::Placement::kOtherDomain);
  opt.health_aware = true;
  const DomainRun dr = run_domains(rack0_scrub_outage(), opt);
  for (const std::uint32_t s : dr.ckpt_servers) EXPECT_LT(s, 2u);
  for (const std::uint32_t s : dr.mirror_servers) EXPECT_GE(s, 2u);
  EXPECT_TRUE(dr.rep.completed);
  EXPECT_TRUE(dr.rep.state_verified)
      << "the mirror must hold the committed step's bytes";
  EXPECT_GE(dr.rep.restarts, 1);
  EXPECT_EQ(dr.rep.lost_checkpoints, 0)
      << "the other-domain mirror survived the burst";
  EXPECT_GE(dr.rep.divergences_repaired, 1)
      << "the scrubbed primary must be re-mirrored after the restore";
}

TEST(Ckpt, PlacementDefaultsMatchPrePlacementEngine) {
  // kStriped placement and health_aware=false are the defaults: a run on
  // a domain machine must produce the exact same report as before the
  // robustness features existed (whole-partition striping, no routing).
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.retry.max_attempts = 3;
  const DomainRun dr = run_domains(fault::InjectionPlan{}, opt);
  EXPECT_TRUE(dr.rep.completed);
  EXPECT_EQ(dr.ckpt_servers.size(), 4u) << "default stays whole-partition";
  EXPECT_EQ(dr.rep.lost_checkpoints, 0);
  EXPECT_EQ(dr.rep.divergences_repaired, 0);
  EXPECT_EQ(dr.rep.hedged_reads, 0u);
}

TEST(Ckpt, YoungDalyInterval) {
  // Young's first-order form: sqrt(2 * C * MTBF).
  EXPECT_DOUBLE_EQ(young_interval(2.0, 100.0), 20.0);
  // Daly's refinement stays below Young (it subtracts C) but within a few
  // percent of it when C << MTBF, and converges to Young as C/M -> 0.
  const double young = young_interval(2.0, 100.0);
  const double daly = young_daly_interval(2.0, 100.0);
  EXPECT_LT(daly, young);
  EXPECT_GT(daly, 0.9 * young);
  EXPECT_NEAR(young_daly_interval(1e-6, 100.0),
              young_interval(1e-6, 100.0), 1e-5);
  // Once checkpointing costs more than it saves, the interval pins to M.
  EXPECT_DOUBLE_EQ(young_daly_interval(500.0, 100.0), 100.0);
  // Degenerate inputs are harmless.
  EXPECT_DOUBLE_EQ(young_daly_interval(0.0, 100.0), 0.0);
  EXPECT_DOUBLE_EQ(young_daly_interval(2.0, 0.0), 0.0);
}

}  // namespace
}  // namespace ckpt
