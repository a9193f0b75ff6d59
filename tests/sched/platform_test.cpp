// Tests for the platform run loop: determinism (same inputs — identical
// reports), node-time conservation, fault recovery, and the cooperative
// checkpoint token.
#include "sched/platform.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "sched/arrival.hpp"
#include "simkit/engine.hpp"

namespace {

constexpr std::size_t kComputeNodes = 16;
constexpr std::size_t kIoNodes = 4;

std::vector<sched::Job> small_stream(int n, std::uint64_t seed) {
  sched::ArrivalConfig cfg;
  cfg.mean_interarrival_s = 2.0;  // overloaded: decisions matter
  cfg.max_jobs = n;
  return sched::generate(cfg, sched::standard_mix(0.02), seed);
}

sched::PlatformReport run_platform(sched::Coordination coord,
                                   sched::Discipline disc, bool faults,
                                   std::uint64_t seed) {
  simkit::Engine eng;
  hw::MachineConfig mc =
      hw::MachineConfig::paragon_large(kComputeNodes, kIoNodes);
  hw::Machine machine(eng, mc);
  fault::Injector injector(fault::InjectionPlan::poisson_node_crashes(
      kIoNodes, /*mtbf=*/40.0, /*outage=*/5.0, /*horizon=*/1e6, seed));
  pfs::StripedFs fs(machine, faults ? &injector : nullptr);

  sched::PlatformOptions opt;
  opt.discipline = disc;
  opt.coordination = coord;
  opt.retry.max_attempts = 4;
  opt.retry.backoff_ms = 5.0;
  return sched::run(machine, fs, faults ? &injector : nullptr,
                    small_stream(32, seed), opt);
}

/// Full-precision digest: any drift in any per-job field differs.
std::string digest(const sched::PlatformReport& r) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "makespan=%.17g waste=%.17g util=%.17g\n",
                r.makespan, r.wasted_node_s, r.utilization);
  out += buf;
  for (const sched::JobOutcome& o : r.jobs) {
    std::snprintf(buf, sizeof buf,
                  "%d %.17g %.17g %.17g %.17g %d %d %d %d\n", o.job.id,
                  o.start_time, o.finish_time, o.productive, o.lost_work,
                  o.checkpoints, o.restarts, o.ckpt_deferrals,
                  o.completed ? 1 : 0);
    out += buf;
  }
  return out;
}

TEST(Platform, SameSeedSameReport) {
  const auto a = run_platform(sched::Coordination::kFreeForAll,
                              sched::Discipline::kFcfs, true, 11);
  const auto b = run_platform(sched::Coordination::kFreeForAll,
                              sched::Discipline::kFcfs, true, 11);
  EXPECT_EQ(digest(a), digest(b));
}

TEST(Platform, NodeTimeConservation) {
  const auto r = run_platform(sched::Coordination::kFreeForAll,
                              sched::Discipline::kFcfs, false, 5);
  EXPECT_EQ(r.completed_jobs, static_cast<int>(r.jobs.size()));
  EXPECT_NEAR(r.held_node_s, r.productive_node_s + r.wasted_node_s, 1e-6);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0);
  EXPECT_GT(r.makespan, 0.0);
  // Fault-free: nothing rolls back, nothing restarts, nothing is lost.
  EXPECT_EQ(r.total_restarts, 0);
  EXPECT_EQ(r.total_lost_work, 0.0);
  for (const sched::JobOutcome& o : r.jobs) {
    EXPECT_GE(o.start_time, o.job.arrival);
    EXPECT_GT(o.finish_time, o.start_time);
    // estimate_runtime_s is deliberately conservative (raw disk
    // bandwidth, no I/O-node caching), so a lightly loaded job can beat
    // it and stretch dips below 1 — but never to 0 or negative.
    EXPECT_GT(o.stretch(), 0.0) << "job " << o.job.id;
  }
}

TEST(Platform, RecoversFromInjectedFaults) {
  const auto r = run_platform(sched::Coordination::kFreeForAll,
                              sched::Discipline::kFcfs, true, 3);
  // MTBF 40 s against a multi-hundred-second run: restarts must happen,
  // and every job must still complete through rollback + re-execution.
  EXPECT_GT(r.total_restarts, 0);
  EXPECT_GT(r.total_lost_work, 0.0);
  EXPECT_EQ(r.completed_jobs, static_cast<int>(r.jobs.size()));
}

TEST(Platform, CooperativeTokenDefersCheckpoints) {
  const auto r = run_platform(sched::Coordination::kCooperative,
                              sched::Discipline::kFcfs, false, 5);
  EXPECT_EQ(r.completed_jobs, static_cast<int>(r.jobs.size()));
  // With concurrent jobs all checkpointing every 2 steps, the single
  // platform token must force some boundary deferrals.
  EXPECT_GT(r.total_deferrals, 0);
}

TEST(Platform, OrderedSlotsComplete) {
  const auto r = run_platform(sched::Coordination::kOrderedSlots,
                              sched::Discipline::kBackfill, false, 5);
  EXPECT_EQ(r.completed_jobs, static_cast<int>(r.jobs.size()));
  // Slot queueing is visible in the per-job wait accounting.
  double slot_wait = 0.0;
  for (const sched::JobOutcome& o : r.jobs) slot_wait += o.io_slot_wait;
  EXPECT_GT(slot_wait, 0.0);
}

TEST(Platform, DisciplinesShareTheStream) {
  // Different disciplines run the same jobs (ids/arrivals identical) but
  // may order starts differently.
  const auto fcfs = run_platform(sched::Coordination::kFreeForAll,
                                 sched::Discipline::kFcfs, false, 9);
  const auto prio = run_platform(sched::Coordination::kFreeForAll,
                                 sched::Discipline::kPriority, false, 9);
  ASSERT_EQ(fcfs.jobs.size(), prio.jobs.size());
  for (std::size_t i = 0; i < fcfs.jobs.size(); ++i) {
    EXPECT_EQ(fcfs.jobs[i].job.id, prio.jobs[i].job.id);
    EXPECT_EQ(fcfs.jobs[i].job.arrival, prio.jobs[i].job.arrival);
  }
}

TEST(Platform, EstimateIsPositiveAndMonotonicInSize) {
  const hw::MachineConfig mc =
      hw::MachineConfig::paragon_large(kComputeNodes, kIoNodes);
  const double small = sched::estimate_runtime_s(
      sched::JobClass::make(sched::AppKind::kScf, sched::SizeClass::kSmall,
                            0.1),
      mc);
  const double large = sched::estimate_runtime_s(
      sched::JobClass::make(sched::AppKind::kScf, sched::SizeClass::kLarge,
                            0.1),
      mc);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
}

}  // namespace
