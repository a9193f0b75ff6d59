// Checkpoint policies: sync/async write paths, full/incremental data
// selection, the dirty-window model, staging-budget degradation, and
// restart from full+delta chains (including losing the newest delta).
#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "ckpt/ckpt.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "iosrv/config.hpp"
#include "metrics/metrics.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace ckpt {
namespace {

Workload small_workload() {
  Workload w;
  w.name = "polunit";
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
                Workload w = small_workload(),
                hw::MachineConfig cfg =
                    hw::MachineConfig::paragon_small(4, 2)) {
  simkit::Engine eng;
  hw::Machine machine(eng, std::move(cfg));
  fault::Injector injector(std::move(plan));
  pfs::StripedFs fs(machine, &injector);
  return run(machine, fs, &injector, std::move(w), std::move(opt));
}

TEST(Policy, ParseAndNameRoundTrip) {
  for (const char* n :
       {"sync_full", "sync_incr", "async_full", "async_incr"}) {
    const auto p = Policy::parse(n);
    ASSERT_TRUE(p.has_value()) << n;
    EXPECT_EQ(p->name(), n);
  }
  EXPECT_EQ(Policy::parse("sync_full")->is_sync_full(), true);
  EXPECT_EQ(Policy::parse("async_incr")->is_sync_full(), false);
  EXPECT_FALSE(Policy::parse("").has_value());
  EXPECT_FALSE(Policy::parse("async").has_value());
  EXPECT_FALSE(Policy::parse("sync_full ").has_value());
}

TEST(Policy, DirtyExtentsRotatingWindow) {
  Workload w;
  w.state_bytes_per_rank = 1000;
  w.dirty_fraction_per_step = 0.25;  // window = 250 bytes per step

  auto one = dirty_extents(w, 0, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].file_offset, 0u);
  EXPECT_EQ(one[0].length, 250u);

  auto fourth = dirty_extents(w, 3, 4);  // step 4's window
  ASSERT_EQ(fourth.size(), 1u);
  EXPECT_EQ(fourth[0].file_offset, 750u);
  EXPECT_EQ(fourth[0].length, 250u);

  // Steps (3, 5]: starts at 750, wraps — two extents with packed
  // buf_offsets covering 500 bytes total.
  auto wrap = dirty_extents(w, 3, 5);
  ASSERT_EQ(wrap.size(), 2u);
  EXPECT_EQ(wrap[0].file_offset, 750u);
  EXPECT_EQ(wrap[0].length, 250u);
  EXPECT_EQ(wrap[0].buf_offset, 0u);
  EXPECT_EQ(wrap[1].file_offset, 0u);
  EXPECT_EQ(wrap[1].length, 250u);
  EXPECT_EQ(wrap[1].buf_offset, 250u);

  // Four windows lap the whole state: one extent covering everything.
  auto lap = dirty_extents(w, 0, 4);
  ASSERT_EQ(lap.size(), 1u);
  EXPECT_EQ(lap[0].file_offset, 0u);
  EXPECT_EQ(lap[0].length, 1000u);

  EXPECT_TRUE(dirty_extents(w, 3, 3).empty());
}

TEST(Policy, LastDirtyStepMatchesWindows) {
  Workload w;
  w.state_bytes_per_rank = 1000;
  w.dirty_fraction_per_step = 0.25;
  // Byte 100 is only in step 1's window [0, 250) and step 5's (window
  // cycle repeats every 4 steps).
  EXPECT_EQ(last_dirty_step(w, 4, 100), 1);
  EXPECT_EQ(last_dirty_step(w, 5, 100), 5);
  // Byte 800 first appears in step 4's window [750, 1000).
  EXPECT_EQ(last_dirty_step(w, 3, 800), 0);  // never dirtied yet
  EXPECT_EQ(last_dirty_step(w, 4, 800), 4);
  // Full-dirty default: the last executed step always owns every byte.
  Workload full;
  full.state_bytes_per_rank = 1000;
  EXPECT_EQ(last_dirty_step(full, 7, 123), 7);
  EXPECT_EQ(last_dirty_step(full, 0, 123), 0);
}

TEST(Policy, SyncIncrementalSplitsFullsAndDeltas) {
  Workload w = small_workload();
  w.dirty_fraction_per_step = 0.25;  // interval-2 delta = half the state
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.policy = *Policy::parse("sync_incr");
  opt.policy.full_every = 2;
  const Report rep = run_with(fault::InjectionPlan{}, opt, w);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.state_verified);
  // Checkpoints at steps 2 (full), 4 (delta), 6 (full).
  EXPECT_EQ(rep.checkpoints, 3);
  EXPECT_EQ(rep.full_checkpoints, 2);
  EXPECT_EQ(rep.delta_checkpoints, 1);
  const std::uint64_t full_bytes = 4ull * 64 * 1024;
  const std::uint64_t delta_bytes = 4ull * 32 * 1024;
  EXPECT_EQ(rep.delta_bytes, delta_bytes);
  EXPECT_EQ(rep.ckpt_bytes, 2 * full_bytes + delta_bytes);
}

TEST(Policy, RestartReplaysFullPlusDeltaChain) {
  // full_every=4 with interval 2 over 8 steps: full at 2, deltas at 4 and
  // 6 — a crash after the last delta restores full@2 + d@4 + d@6, and the
  // backed-state verification proves every byte matches step 6's pattern.
  Workload w = small_workload();
  w.dirty_fraction_per_step = 0.2;
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.retry.max_attempts = 3;
  opt.policy = *Policy::parse("sync_incr");
  const double t = run_with(fault::InjectionPlan{}, opt, w).exec_time;
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.85 * t, 2.0 * t);
  plan.crash_node(1, 0.85 * t, 2.0 * t);
  const Report rep = run_with(plan, opt, w);
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.restarts, 1);
  EXPECT_TRUE(rep.state_verified)
      << "chain replay must reproduce the checkpointed step exactly";
  EXPECT_GT(rep.delta_checkpoints, 0);
  EXPECT_GT(rep.lost_work, 0.0);
}

TEST(Policy, AsyncOverlapsDrainWithCompute) {
  Options sync_opt;
  sync_opt.ckpt_interval_steps = 2;
  Options async_opt = sync_opt;
  async_opt.policy = *Policy::parse("async_full");
  const Report s = run_with(fault::InjectionPlan{}, sync_opt);
  const Report a = run_with(fault::InjectionPlan{}, async_opt);
  ASSERT_TRUE(s.completed);
  ASSERT_TRUE(a.completed);
  // Every issued checkpoint either committed or was still in flight at
  // job end (then it is dropped, never lost silently).
  EXPECT_EQ(a.checkpoints + a.dropped_checkpoints, 3);
  EXPECT_GT(a.checkpoints, 0);
  // Ranks only block for the staging copy, not the PFS write.
  EXPECT_LT(a.ckpt_overhead, s.ckpt_overhead);
  EXPECT_GT(a.drain_time, 0.0);
}

TEST(Policy, AsyncRestartRestoresVerifiedState) {
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.retry.max_attempts = 3;
  opt.policy = *Policy::parse("async_incr");
  opt.policy.full_every = 2;
  Workload w = small_workload();
  w.dirty_fraction_per_step = 0.25;
  const double t = run_with(fault::InjectionPlan{}, opt, w).exec_time;
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.6 * t, 2.0 * t);
  plan.crash_node(1, 0.6 * t, 2.0 * t);
  const Report rep = run_with(plan, opt, w);
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.restarts, 1);
  EXPECT_TRUE(rep.state_verified)
      << "async commits must only expose fully drained checkpoints";
}

TEST(Policy, StagingBudgetDegradesToBlocking) {
  Options roomy;
  roomy.ckpt_interval_steps = 2;
  roomy.policy = *Policy::parse("async_full");
  Options tight = roomy;
  tight.policy.staging_budget_bytes = 1;  // every snapshot over budget
  const Report r = run_with(fault::InjectionPlan{}, roomy);
  const Report t = run_with(fault::InjectionPlan{}, tight);
  ASSERT_TRUE(r.completed);
  ASSERT_TRUE(t.completed);
  // Over budget the rank waits for its own drain: the blocked time must
  // reflect the PFS write again, not just the staging copy.
  EXPECT_GT(t.ckpt_overhead, r.ckpt_overhead);
  // Blocking until the drain finishes also means nothing can be dropped
  // at job end.
  EXPECT_EQ(t.checkpoints, 3);
  EXPECT_EQ(t.dropped_checkpoints, 0);
}

TEST(Policy, ReportsAreDeterministicAcrossIdenticalRuns) {
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.retry.max_attempts = 3;
  opt.policy = *Policy::parse("async_incr");
  Workload w = small_workload();
  w.dirty_fraction_per_step = 0.25;
  const double t = run_with(fault::InjectionPlan{}, opt, w).exec_time;
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.6 * t, 2.0 * t);
  plan.crash_node(1, 0.6 * t, 2.0 * t);
  const Report a = run_with(plan, opt, w);
  const Report b = run_with(plan, opt, w);
  EXPECT_EQ(a.exec_time, b.exec_time);  // bitwise: same event sequence
  EXPECT_EQ(a.ckpt_overhead, b.ckpt_overhead);
  EXPECT_EQ(a.lost_work, b.lost_work);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.dropped_checkpoints, b.dropped_checkpoints);
  EXPECT_EQ(a.retry.attempts, b.retry.attempts);
}

// Losing the newest delta: a crash kills its in-flight drain (the drain
// ladder is a single attempt), so the chain keeps ending at the previous
// delta and the later rollback falls back one checkpoint further than a
// run whose outage starts after that drain committed.
TEST(Policy, LostNewestDeltaFallsBackToPreviousChain) {
  Workload w = small_workload();
  w.steps = 12;
  w.dirty_fraction_per_step = 0.2;
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.retry.max_attempts = 8;    // foreground rides out short outages...
  opt.retry.backoff_ms = 40.0;   // ...with a long exponential ladder
  opt.drain_retry.max_attempts = 1;  // but a drain dies on first contact
  opt.policy = *Policy::parse("async_incr");
  opt.policy.full_every = 3;  // full at step 2, deltas at 4 and 6

  // Calibrate: the issue/commit timeseries of a fault-free run give the
  // exact in-flight window of delta@6's drain.  The simulator is
  // deterministic, so a faulted run replays identical timing up to the
  // instant the fault plan first intervenes.
  double issue6 = -1.0, commit6 = -1.0;
  {
    metrics::Registry reg;
    metrics::Scope scope(reg);
    const Report calib = run_with(fault::InjectionPlan{}, opt, w);
    ASSERT_TRUE(calib.completed);
    for (const auto& s : reg.timeseries("ckpt.issue").samples()) {
      if (s.value == 6.0) issue6 = s.t;
    }
    for (const auto& s : reg.timeseries("ckpt.commit").samples()) {
      if (s.value == 6.0) commit6 = s.t;
    }
  }
  ASSERT_GT(issue6, 0.0) << "delta@6 must be issued in the calibration run";
  ASSERT_GT(commit6, issue6) << "its drain must take simulated time";

  const double exec = run_with(fault::InjectionPlan{}, opt, w).exec_time;
  // The outage must outlast the foreground ladder (8 tries x 40 ms
  // doubling ~ 5.1 s) so the job really fails and rolls back.
  const double outage = 2.0 * exec + 8.0;
  auto outage_from = [outage](double at) {
    fault::InjectionPlan plan;
    plan.crash_node(0, at, outage);
    plan.crash_node(1, at, outage);
    return plan;
  };

  // Outage opens mid-drain: delta@6 is lost, rollback reaches only
  // full@2 + delta@4.
  const Report lost = run_with(outage_from(0.5 * (issue6 + commit6)), opt, w);
  // Control: outage opens just after the drain committed, rollback
  // reaches full@2 + delta@4 + delta@6.
  const Report kept =
      run_with(outage_from(commit6 + 0.01 * (commit6 - issue6)), opt, w);

  ASSERT_TRUE(lost.completed);
  ASSERT_TRUE(kept.completed);
  ASSERT_GE(lost.restarts, 1) << "the outage must defeat the ladder";
  ASSERT_GE(kept.restarts, 1);
  EXPECT_TRUE(lost.state_verified)
      << "fallback chain must still restore a consistent state";
  EXPECT_TRUE(kept.state_verified);
  EXPECT_GE(lost.dropped_checkpoints, 1)
      << "the killed drain must surface as a dropped checkpoint";
  EXPECT_GT(lost.lost_work, kept.lost_work)
      << "losing the newest delta rolls back one checkpoint further";
}

// Servers whose crash loses what they acked but had not flushed: pooled
// write-behind with crash semantics on, under `durability`.
hw::MachineConfig crashing_servers(iosrv::DurabilityPolicy durability) {
  hw::MachineConfig cfg = hw::MachineConfig::paragon_small(4, 2);
  cfg.io.server.writeback.mode = iosrv::WritebackMode::kPool;
  cfg.io.server.durability.policy = durability;
  cfg.io.server.durability.crash_semantics = true;
  return cfg;
}

// Every policy on crash-semantics servers, node 0 down for 40-50% of the
// fault-free sync_full run.  ordered_drain fsyncs every checkpoint before
// it commits, so the crash fails a commit or a restore but never hollows
// out a committed copy.  write_behind commits on the ack: under the async
// policies the crash drops a committed copy's unflushed bytes, restart
// routing (fs.file_lost_in) must fall back to an older chain, and the
// restore must still verify.  exec_time and the counts are pinned, so
// any change to the simulated event sequence shows.
TEST(Policy, CrashSemanticsUnderWriteBehindAndOrderedDrain) {
  using iosrv::DurabilityPolicy;
  struct Pin {
    DurabilityPolicy durability;
    const char* policy;
    double exec_time;
    int checkpoints;
    int dropped;
    int restarts;
    int lost;
    std::uint64_t ckpt_bytes;
  };
  const Pin pins[] = {
      {DurabilityPolicy::kWriteBehind, "sync_full", 0.8549171451888693, 3, 0,
       0, 0, 786432},
      {DurabilityPolicy::kWriteBehind, "sync_incr", 0.85357590709363107, 3,
       0, 0, 0, 655360},
      {DurabilityPolicy::kWriteBehind, "async_full", 1.3191761001715119, 4,
       0, 1, 1, 1048576},
      {DurabilityPolicy::kWriteBehind, "async_incr", 1.318083833504845, 4, 0,
       1, 1, 917504},
      {DurabilityPolicy::kOrderedDrain, "sync_full", 1.196262262958409, 3, 0,
       1, 0, 786432},
      {DurabilityPolicy::kOrderedDrain, "sync_incr", 1.1744479425921188, 3,
       0, 1, 0, 655360},
      {DurabilityPolicy::kOrderedDrain, "async_full", 1.0977972270056777, 3,
       0, 1, 0, 786432},
      {DurabilityPolicy::kOrderedDrain, "async_incr", 1.0967082712482807, 3,
       0, 1, 0, 655360},
  };
  Workload w = small_workload();
  w.dirty_fraction_per_step = 0.25;
  Options opt;
  opt.ckpt_interval_steps = 2;
  opt.retry.max_attempts = 3;
  opt.policy.full_every = 2;
  const double t =
      run_with(fault::InjectionPlan{}, opt, w,
               crashing_servers(DurabilityPolicy::kWriteBehind))
          .exec_time;
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.4 * t, 0.5 * t);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(std::string(iosrv::to_string(pin.durability)) + " " +
                 pin.policy);
    const Policy parsed = *Policy::parse(pin.policy);
    opt.policy.write = parsed.write;
    opt.policy.data = parsed.data;
    const Report rep =
        run_with(plan, opt, w, crashing_servers(pin.durability));
    EXPECT_TRUE(rep.completed);
    EXPECT_TRUE(rep.state_verified);
    if (pin.durability == DurabilityPolicy::kOrderedDrain) {
      EXPECT_EQ(rep.lost_checkpoints, 0)
          << "a fsynced commit cannot lose its bytes";
    }
    EXPECT_NEAR(rep.exec_time, pin.exec_time, 1e-9);
    EXPECT_EQ(rep.checkpoints, pin.checkpoints);
    EXPECT_EQ(rep.dropped_checkpoints, pin.dropped);
    EXPECT_EQ(rep.restarts, pin.restarts);
    EXPECT_EQ(rep.lost_checkpoints, pin.lost);
    EXPECT_EQ(rep.ckpt_bytes, pin.ckpt_bytes);
  }
}

}  // namespace
}  // namespace ckpt
