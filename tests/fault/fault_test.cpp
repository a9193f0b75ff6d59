// Fault layer: plan determinism, injector arming, and how failures
// surface through the striped file system.
#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "pfs/types.hpp"
#include "simkit/engine.hpp"

namespace fault {
namespace {

struct Rig {
  simkit::Engine eng;
  hw::Machine machine;
  pfs::StripedFs fs;
  explicit Rig(Injector* injector = nullptr,
               hw::MachineConfig cfg = hw::MachineConfig::paragon_small(4, 2))
      : machine(eng, std::move(cfg)), fs(machine, injector) {}
};

TEST(InjectionPlan, PoissonIsSeedDeterministic) {
  const auto a = InjectionPlan::poisson_node_crashes(4, 50.0, 5.0, 2000.0, 7);
  const auto b = InjectionPlan::poisson_node_crashes(4, 50.0, 5.0, 2000.0, 7);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  EXPECT_FALSE(a.crashes.empty());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].io_node, b.crashes[i].io_node);
    EXPECT_EQ(a.crashes[i].crash, b.crashes[i].crash);  // exact
    EXPECT_EQ(a.crashes[i].reboot, b.crashes[i].reboot);
  }
  const auto c = InjectionPlan::poisson_node_crashes(4, 50.0, 5.0, 2000.0, 8);
  bool same = a.crashes.size() == c.crashes.size();
  for (std::size_t i = 0; same && i < a.crashes.size(); ++i) {
    same = a.crashes[i].crash == c.crashes[i].crash;
  }
  EXPECT_FALSE(same) << "different seeds must yield different plans";
}

TEST(Injector, ArmsAndClearsOnSchedule) {
  simkit::Engine eng;
  InjectionPlan plan;
  plan.crash_node(1, 1.0, 2.0).crash_node(1, 1.5, 3.0);  // overlapping
  Injector inj(plan);
  inj.start(eng);
  std::vector<bool> seen;
  eng.spawn([](simkit::Engine& e, Injector& i,
               std::vector<bool>& out) -> simkit::Task<void> {
    co_await e.delay(0.5);
    out.push_back(i.node_down(1));  // t=0.5: up
    co_await e.delay(1.0);
    out.push_back(i.node_down(1));  // t=1.5: down (both windows)
    co_await e.delay(1.0);
    out.push_back(i.node_down(1));  // t=2.5: still down (second window)
    co_await e.delay(1.0);
    out.push_back(i.node_down(1));  // t=3.5: up again
  }(eng, inj, seen));
  eng.run();
  EXPECT_EQ(seen, (std::vector<bool>{false, true, true, false}));
  EXPECT_DOUBLE_EQ(inj.all_up_by(1.2), 3.0);  // chained windows
  EXPECT_DOUBLE_EQ(inj.all_up_by(5.0), 5.0);
}

TEST(Injector, NodeCrashSurfacesAsTypedIoError) {
  InjectionPlan plan;
  plan.crash_node(0, 0.0, 1000.0);
  Injector inj(plan);
  Rig rig(&inj);
  const pfs::FileId f = rig.fs.create("victim");  // id 0 -> first server 0
  bool threw = false;
  rig.eng.spawn([](Rig& r, pfs::FileId f, bool& threw) -> simkit::Task<void> {
    try {
      co_await r.fs.pwrite(r.machine.compute_node(0), f, 0, 4096);
    } catch (const pfs::IoError& e) {
      threw = true;
      EXPECT_EQ(e.io_node(), 0u);
    }
  }(rig, f, threw));
  rig.eng.run();
  EXPECT_TRUE(threw);
  EXPECT_GE(inj.rejected_requests(), 1u);
}

// The pay-for-what-you-use contract: an injector with an EMPTY plan is
// bit-identical to no injector at all (same simulated times, exactly).
TEST(Injector, EmptyPlanIsBitIdenticalToNoInjector) {
  auto timed_run = [](Injector* inj) {
    Rig rig(inj);
    const pfs::FileId f = rig.fs.create("same");
    rig.eng.spawn([](Rig& r, pfs::FileId f) -> simkit::Task<void> {
      for (int i = 0; i < 8; ++i) {
        co_await r.fs.pwrite(r.machine.compute_node(0), f,
                             static_cast<std::uint64_t>(i) * 100'000,
                             70'000);
      }
      for (int i = 7; i >= 0; --i) {
        co_await r.fs.pread(r.machine.compute_node(1), f,
                            static_cast<std::uint64_t>(i) * 100'000, 70'000);
      }
      co_await r.fs.fsync(r.machine.compute_node(0), f);
    }(rig, f));
    rig.eng.run();
    return rig.eng.now();
  };
  Injector empty{InjectionPlan{}};
  EXPECT_EQ(timed_run(nullptr), timed_run(&empty));  // exact equality
}

TEST(InjectionPlan, PoissonMeanGapMatchesMtbf) {
  // Empirical check of the generator's event process: with a long horizon
  // the mean inter-crash gap converges to the configured MTBF.
  const double mtbf = 30.0;
  const auto plan =
      InjectionPlan::poisson_node_crashes(4, mtbf, 2.0, 600'000.0, 42);
  ASSERT_GT(plan.crashes.size(), 1000u);
  double prev = 0.0;
  double sum = 0.0;
  for (const auto& c : plan.crashes) {
    sum += c.crash - prev;
    prev = c.crash;
  }
  const double mean_gap = sum / static_cast<double>(plan.crashes.size());
  EXPECT_NEAR(mean_gap, mtbf, 0.05 * mtbf);
}

TEST(Injector, OverlappingSameNodeWindowsFormDownTimeUnion) {
  // Dense schedule: many overlapping windows on few nodes.  The armed
  // state must match the union of the planned intervals at every probe.
  const auto plan =
      InjectionPlan::poisson_node_crashes(2, 3.0, 10.0, 200.0, 11);
  bool has_overlap = false;
  for (std::size_t i = 0; i + 1 < plan.crashes.size() && !has_overlap; ++i) {
    for (std::size_t j = i + 1; j < plan.crashes.size(); ++j) {
      if (plan.crashes[i].io_node == plan.crashes[j].io_node &&
          plan.crashes[j].crash < plan.crashes[i].reboot &&
          plan.crashes[i].crash < plan.crashes[j].reboot) {
        has_overlap = true;
        break;
      }
    }
  }
  ASSERT_TRUE(has_overlap) << "schedule too sparse to exercise overlap";
  auto planned_down = [&plan](std::size_t node, simkit::Time t) {
    for (const auto& c : plan.crashes) {
      if (c.io_node == node && c.crash <= t && t < c.reboot) return true;
    }
    return false;
  };
  simkit::Engine eng;
  Injector inj(plan);
  inj.start(eng);
  int mismatches = 0;
  eng.spawn([](simkit::Engine& e, Injector& i, auto planned,
               int& bad) -> simkit::Task<void> {
    // Probe off the fault edges (edges fire at integer-free instants with
    // probability 1; +0.25 keeps probes strictly inside intervals).
    for (int k = 0; k < 880; ++k) {
      co_await e.delay(0.25);
      for (std::size_t node = 0; node < 2; ++node) {
        if (i.node_down(node) != planned(node, e.now())) ++bad;
      }
    }
  }(eng, inj, planned_down, mismatches));
  eng.run();
  EXPECT_EQ(mismatches, 0);
}

TEST(InjectionPlan, CorrelatedGeneratorMixesBurstsAndSingles) {
  const auto a = InjectionPlan::correlated_node_crashes(
      4, 2, 40.0, 5.0, 0.5, 4000.0, 13);
  const auto b = InjectionPlan::correlated_node_crashes(
      4, 2, 40.0, 5.0, 0.5, 4000.0, 13);
  ASSERT_EQ(a.crashes.size(), b.crashes.size());
  ASSERT_FALSE(a.domain_outages.empty());
  for (std::size_t i = 0; i < a.crashes.size(); ++i) {
    EXPECT_EQ(a.crashes[i].crash, b.crashes[i].crash);  // exact replay
    EXPECT_EQ(a.crashes[i].scrub, b.crashes[i].scrub);
  }
  // Bursts scrub every member of one domain; singles reboot cleanly.
  std::size_t scrubbed = 0;
  std::size_t clean = 0;
  for (const auto& c : a.crashes) (c.scrub ? scrubbed : clean)++;
  EXPECT_GT(scrubbed, 0u);
  EXPECT_GT(clean, 0u);
  for (const auto& d : a.domain_outages) {
    EXPECT_LT(d.domain, 2u);
    // Every member window of the burst exists, scrubbed, same interval.
    int members = 0;
    for (const auto& c : a.crashes) {
      if (c.crash == d.start && c.reboot == d.end && c.scrub) ++members;
    }
    EXPECT_EQ(members, 2);
  }
}

TEST(InjectionPlan, CorrelatedEventClockInvariantUnderFractionSweep) {
  // Same seed, different blast radii: the fault instants line up, so a
  // correlated-vs-independent comparison isolates the correlation itself.
  const auto indep = InjectionPlan::correlated_node_crashes(
      4, 2, 40.0, 5.0, 0.0, 4000.0, 99);
  const auto corr = InjectionPlan::correlated_node_crashes(
      4, 2, 40.0, 5.0, 0.6, 4000.0, 99);
  std::vector<simkit::Time> ti;
  std::vector<simkit::Time> tc;
  for (const auto& c : indep.crashes) ti.push_back(c.crash);
  for (const auto& d : corr.domain_outages) tc.push_back(d.start);
  for (const auto& c : corr.crashes) {
    if (!c.scrub) tc.push_back(c.crash);
  }
  std::sort(tc.begin(), tc.end());
  EXPECT_EQ(ti, tc);
  EXPECT_TRUE(indep.domain_outages.empty());
}

TEST(InjectionPlan, DomainOutageBuildsScrubbingMemberWindows) {
  InjectionPlan q;
  q.outage_domain(1, {2, 3}, 5.0, 50.0);
  ASSERT_EQ(q.crashes.size(), 2u);
  EXPECT_TRUE(q.crashes[0].scrub);
  EXPECT_TRUE(q.crashes[1].scrub);
}

// One 128 KB read (a stripe unit on each of the rig's two disks) every
// 0.5 s for an hour of simulated time, six mean healthy dwells of the
// Markov walk.  The reads cycle through 8 MB, so they miss the 2 MB
// server caches and reach the disks.  Returns the workload's completion
// time, not the fault-edge drain.
double paced_reads(Injector* inj) {
  Rig rig(inj);
  const pfs::FileId f = rig.fs.create("arms");
  double done = -1.0;
  rig.eng.spawn([](Rig& r, pfs::FileId f, double& out) -> simkit::Task<void> {
    for (int k = 0; k < 7200; ++k) {
      co_await r.fs.pread(r.machine.compute_node(0), f,
                          static_cast<std::uint64_t>(k % 64) * 128 * 1024,
                          128 * 1024);
      co_await r.eng.delay(0.5);
    }
    out = r.eng.now();
  }(rig, f, done));
  rig.eng.run();
  return done;
}

TEST(Injector, MarkovDisksStretchServiceAndReplayExactly) {
  InjectionPlan plan;
  plan.with_markov_disks(3600.0);
  const double healthy = paced_reads(nullptr);
  Injector a{plan};
  const double run1 = paced_reads(&a);
  Injector b{plan};
  const double run2 = paced_reads(&b);
  EXPECT_GT(run1, healthy);
  EXPECT_EQ(run1, run2);  // bit-identical replay of the stochastic walk
  EXPECT_GT(a.sticky_transitions(), 0u);
}

// The walk's rates and stretches are constants: these literals were taken
// with 600/20/5 s mean dwells, p_stick 0.25 and 4x/40x stretches.  Seed 1
// draws a sticky exit at 0.24997 and one at 0.25124, so moving p_stick
// out of that gap moves the stuck count; a 1% change to any other
// constant moves the completion time.
TEST(Injector, MarkovWalkIsPinned) {
  InjectionPlan plan;
  plan.seed = 1;
  plan.with_markov_disks(3600.0);
  Injector inj{plan};
  EXPECT_DOUBLE_EQ(paced_reads(&inj), 3726.8504756243774);
  EXPECT_EQ(inj.sticky_transitions(), 20u);
  EXPECT_EQ(inj.stuck_transitions(), 6u);
}

TEST(Injector, ScrubQueryAndScopedRecoveryWait) {
  InjectionPlan plan;
  plan.crash_node(0, 10.0, 20.0, /*scrub=*/true)
      .crash_node(1, 15.0, 40.0)  // clean reboot
      .crash_node(2, 35.0, 50.0, /*scrub=*/true);
  Injector inj(plan);
  // Scrub happened strictly after t0 and at-or-before t1.
  EXPECT_TRUE(inj.node_scrubbed_in(0, 0.0, 30.0));
  EXPECT_TRUE(inj.node_scrubbed_in(0, 5.0, 10.0));   // inclusive right edge
  EXPECT_FALSE(inj.node_scrubbed_in(0, 10.0, 30.0));  // exclusive left edge
  EXPECT_FALSE(inj.node_scrubbed_in(1, 0.0, 100.0));  // clean crash
  EXPECT_FALSE(inj.node_scrubbed_in(3, 0.0, 100.0));
  // The recovery wait chains through overlapping windows: node 0's
  // reboot at 20 falls in node 1's outage, whose reboot at 40 falls in
  // node 2's.
  EXPECT_DOUBLE_EQ(inj.all_up_by(12.0), 50.0);
  EXPECT_DOUBLE_EQ(inj.all_up_by(60.0), 60.0);
}

}  // namespace
}  // namespace fault
