// Scenarios "platform_ckpt_interference" and "platform_queueing" — the
// multi-tenant platform layer (src/sched) run at scale: hundreds of
// queued jobs drawn from the five paper applications contending for one
// machine and ONE shared striped file system.
//
// platform_ckpt_interference replays the SAME job stream and the SAME
// crash plan under the three I/O-coordination strategies (free-for-all,
// ordered I/O slots, cooperative checkpoint scheduling) and compares
// platform waste — node-seconds held by jobs while not making forward
// progress.  The --check shape is the headline acceptance claim:
// coordinated checkpoint scheduling wastes strictly less node-time than
// free-for-all.
//
// platform_queueing holds coordination fixed (fault-free, free-for-all)
// and sweeps the queue discipline (fcfs, priority, EASY backfill),
// checking the textbook shapes: backfill raises utilization and cuts
// queue wait versus plain FCFS, and priority scheduling buys the
// high-priority (small) jobs a better stretch.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/table.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "sched/arrival.hpp"
#include "sched/platform.hpp"
#include "simkit/engine.hpp"

namespace {

constexpr std::size_t kComputeNodes = 64;
constexpr std::size_t kIoNodes = 8;
constexpr double kMtbf = 90.0;      // cluster-wide I/O-node crash rate (s)
constexpr double kOutage = 8.0;     // reboot window per crash (s)
constexpr double kFaultHorizon = 2.0e6;  // covers any makespan we reach

/// The shared arrival pattern: an overloaded platform (arrivals outpace
/// service, roughly 2x) with trace-style rush-hour bursts, so the queue
/// is never empty and scheduling decisions actually matter.
sched::ArrivalConfig arrivals(int max_jobs) {
  sched::ArrivalConfig ac;
  ac.mean_interarrival_s = 2.0;
  ac.max_jobs = max_jobs;
  ac.burst_period_s = 120.0;
  ac.burst_len_s = 30.0;
  ac.burst_rate_multiplier = 4.0;
  return ac;
}

sched::PlatformReport run_once(sched::Coordination coord,
                               sched::Discipline disc, int max_jobs,
                               bool faults, double scale,
                               std::uint64_t seed) {
  simkit::Engine eng;
  hw::MachineConfig mc =
      hw::MachineConfig::paragon_large(kComputeNodes, kIoNodes);
  hw::Machine machine(eng, mc);

  // One injector seed for every strategy: runs differ only in the
  // coordination/discipline knob, so waste differences are attributable
  // to it, not to different crash draws.
  fault::Injector injector(fault::InjectionPlan::poisson_node_crashes(
      kIoNodes, kMtbf, kOutage, kFaultHorizon, seed));
  pfs::StripedFs fs(machine, faults ? &injector : nullptr);

  std::vector<sched::Job> jobs =
      sched::generate(arrivals(max_jobs), sched::standard_mix(scale), seed);

  sched::PlatformOptions po;
  po.discipline = disc;
  po.coordination = coord;
  po.retry.max_attempts = 4;
  po.retry.backoff_ms = 5.0;
  return sched::run(machine, fs, faults ? &injector : nullptr,
                    std::move(jobs), po);
}

void add_report_row(expt::Table& t, const std::string& label,
                    const sched::PlatformReport& r) {
  t.add_row({label,
             expt::fmt_u64(static_cast<unsigned long long>(r.completed_jobs)) +
                 "/" + expt::fmt_u64(r.jobs.size()),
             expt::fmt_s(r.makespan),
             expt::fmt("%.1f", 100.0 * r.utilization),
             expt::fmt("%.0f", r.wasted_node_s),
             expt::fmt("%.2f", r.mean_stretch),
             expt::fmt("%.2f", r.p95_stretch),
             expt::fmt_s(r.mean_queue_wait_s),
             expt::fmt_s(r.total_ckpt_blocked),
             expt::fmt_s(r.total_lost_work),
             expt::fmt_u64(static_cast<unsigned long long>(r.total_restarts)),
             expt::fmt_u64(
                 static_cast<unsigned long long>(r.total_deferrals))});
}

// ---------------------------------------------------------------- ckpt --

void run_interference(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();
  constexpr int kJobs = 224;  // acceptance floor is >= 200

  const sched::Coordination coords[] = {sched::Coordination::kFreeForAll,
                                        sched::Coordination::kOrderedSlots,
                                        sched::Coordination::kCooperative};
  const std::vector<sched::PlatformReport> reps =
      ctx.map<sched::PlatformReport>(std::size(coords), [&](std::size_t i) {
        return run_once(coords[i], sched::Discipline::kFcfs, kJobs,
                        /*faults=*/true, opt.scale, opt.seed);
      });

  expt::Table table({"coordination", "done", "makespan (s)", "util %",
                     "waste (node-s)", "stretch", "p95", "qwait (s)",
                     "ckpt-blk (s)", "lost (s)", "restarts", "deferrals"});
  for (std::size_t i = 0; i < std::size(coords); ++i) {
    add_report_row(table, sched::to_string(coords[i]), reps[i]);
  }

  const sched::PlatformReport& ffa = reps[0];
  const sched::PlatformReport& slots = reps[1];
  const sched::PlatformReport& coop = reps[2];
  ctx.printf(
      "Platform checkpoint interference: %d jobs (5 apps x 3 sizes), "
      "%zu compute nodes, %zu I/O nodes, FCFS, crashes MTBF=%.0fs "
      "outage=%.0fs seed=%llu\n%s\n",
      kJobs, kComputeNodes, kIoNodes, kMtbf, kOutage,
      static_cast<unsigned long long>(opt.seed), ctx.table(table).c_str());
  ctx.printf(
      "Waste split, cooperative vs free-for-all: ckpt-blocked %.0f -> "
      "%.0f node-s equivalent stalls; deferrals traded %d boundary "
      "skips for compute kept hot.\n\n",
      ffa.total_ckpt_blocked, coop.total_ckpt_blocked,
      coop.total_deferrals);

  bool all_done = true;
  for (const sched::PlatformReport& r : reps) {
    all_done = all_done && r.completed_jobs == static_cast<int>(r.jobs.size());
  }
  ctx.expect(static_cast<int>(ffa.jobs.size()) >= 200,
             "the stream queues at least 200 jobs");
  ctx.expect(all_done, "every job completes under every strategy");
  ctx.expect(coop.wasted_node_s < ffa.wasted_node_s,
             "cooperative checkpoint scheduling wastes strictly less "
             "node-time (" +
                 expt::fmt("%.0f", coop.wasted_node_s) +
                 ") than free-for-all (" +
                 expt::fmt("%.0f", ffa.wasted_node_s) + ")");
  ctx.expect(coop.total_ckpt_blocked < ffa.total_ckpt_blocked,
             "one-at-a-time checkpoints cut per-job checkpoint stalls");
  ctx.expect(coop.total_deferrals > 0,
             "cooperative mode actually defers checkpoints");
  ctx.expect(slots.total_restarts == ffa.total_restarts ||
                 slots.completed_jobs == static_cast<int>(
                                             slots.jobs.size()),
             "ordered slots stay functionally correct under faults");
}

const scenario::Registration reg_interference{{
    .name = "platform_ckpt_interference",
    .title = "Platform I/O coordination: ckpt waste under a 224-job stream",
    .description =
        "Replays one seeded arrival stream (224 jobs over the five paper "
        "apps) and one crash plan under free-for-all, ordered-slot, and "
        "cooperative checkpoint coordination on a shared PFS. --check "
        "asserts every job completes and cooperative scheduling wastes "
        "strictly less node-time than free-for-all.",
    .default_scale = 0.04,
    .grid = {{"coordination",
              {"free_for_all", "ordered_slots", "cooperative"}}},
    .run = run_interference,
}};

// ------------------------------------------------------------- queueing --

void run_queueing(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();
  constexpr int kJobs = 160;

  const sched::Discipline discs[] = {sched::Discipline::kFcfs,
                                     sched::Discipline::kPriority,
                                     sched::Discipline::kBackfill};
  const std::vector<sched::PlatformReport> reps =
      ctx.map<sched::PlatformReport>(std::size(discs), [&](std::size_t i) {
        return run_once(sched::Coordination::kFreeForAll, discs[i], kJobs,
                        /*faults=*/false, opt.scale, opt.seed);
      });

  expt::Table table({"discipline", "done", "makespan (s)", "util %",
                     "waste (node-s)", "stretch", "p95", "qwait (s)",
                     "ckpt-blk (s)", "lost (s)", "restarts", "deferrals"});
  for (std::size_t i = 0; i < std::size(discs); ++i) {
    add_report_row(table, sched::to_string(discs[i]), reps[i]);
  }

  // Priority's promise is to the urgent (small, priority-2) jobs.
  auto priority2_stretch = [](const sched::PlatformReport& r) {
    double sum = 0.0;
    int n = 0;
    for (const sched::JobOutcome& o : r.jobs) {
      if (o.completed && o.job.klass.priority == 2) {
        sum += o.stretch();
        ++n;
      }
    }
    return n > 0 ? sum / n : 0.0;
  };
  const sched::PlatformReport& fcfs = reps[0];
  const sched::PlatformReport& prio = reps[1];
  const sched::PlatformReport& fill = reps[2];
  const double fcfs_p2 = priority2_stretch(fcfs);
  const double prio_p2 = priority2_stretch(prio);

  ctx.printf(
      "Platform queueing disciplines: %d jobs, %zu compute nodes, "
      "%zu I/O nodes, fault-free, free-for-all I/O, seed=%llu\n%s\n",
      kJobs, kComputeNodes, kIoNodes,
      static_cast<unsigned long long>(opt.seed), ctx.table(table).c_str());
  ctx.printf("High-priority (small) job stretch: fcfs %.2f, priority "
             "%.2f; backfill makespan %.0fs vs fcfs %.0fs\n\n",
             fcfs_p2, prio_p2, fill.makespan, fcfs.makespan);

  bool all_done = true;
  for (const sched::PlatformReport& r : reps) {
    all_done = all_done && r.completed_jobs == static_cast<int>(r.jobs.size());
  }
  ctx.expect(all_done, "every job completes under every discipline");
  int restarts = 0;
  for (const sched::PlatformReport& r : reps) {
    restarts += r.total_restarts;
  }
  ctx.expect(restarts == 0, "fault-free platform never restarts a job");
  // EASY's no-delay guarantee is per-decision (by estimate); backfilled
  // jobs still add I/O interference, so allow makespan a small slip
  // while demanding the user-visible wins.
  ctx.expect(fill.makespan <= fcfs.makespan * 1.05,
             "EASY backfill holds the FCFS makespan within 5% (" +
                 expt::fmt("%.0f", fill.makespan) + " vs " +
                 expt::fmt("%.0f", fcfs.makespan) + " s)");
  ctx.expect(fill.mean_queue_wait_s < fcfs.mean_queue_wait_s,
             "backfill cuts mean queue wait vs FCFS");
  ctx.expect(fill.mean_stretch < fcfs.mean_stretch,
             "backfill cuts mean stretch vs FCFS (" +
                 expt::fmt("%.2f", fill.mean_stretch) + " vs " +
                 expt::fmt("%.2f", fcfs.mean_stretch) + ")");
  ctx.expect(prio_p2 < fcfs_p2,
             "priority discipline improves high-priority job stretch (" +
                 expt::fmt("%.2f", prio_p2) + " vs " +
                 expt::fmt("%.2f", fcfs_p2) + ")");
}

const scenario::Registration reg_queueing{{
    .name = "platform_queueing",
    .title = "Platform queue disciplines: fcfs vs priority vs backfill",
    .description =
        "Runs one seeded 160-job stream fault-free under fcfs, priority, "
        "and EASY-backfill disciplines. --check asserts completion, no "
        "restarts, backfill's makespan/queue-wait win over FCFS, and a "
        "stretch win for high-priority jobs under priority scheduling.",
    .default_scale = 0.04,
    .grid = {{"discipline", {"fcfs", "priority", "backfill"}}},
    .run = run_queueing,
}};

}  // namespace
