// Scenario "fault_ckpt" — checkpoint-interval x fault-rate tradeoff for
// SCF 1.1 under injected I/O-node crashes.
//
// The classic result (Young's approximation): checkpoint too often and
// the coordinated writes eat the run; too rarely and every crash rolls
// back a long stretch of lost work.  Total execution time is minimized at
// an interior interval near sqrt(2 * C * MTBF).  This bench replays the
// same deterministic crash plan against a sweep of intervals (0 = no
// checkpointing) and reports the exec-time split from ckpt::Report; the
// --check shape asserts the minimum is interior — neither the smallest
// tested interval nor "never checkpoint" wins.
//
// --policy=NAME (sync_full | sync_incr | async_full | async_incr) runs the
// sweep under that checkpoint policy and appends a four-policy comparison
// at the sync_full Young/Daly interval: the paper's software-technique
// argument applied to resilience — overlap (async) and fewer/smaller
// transfers (incremental) beat paying the full synchronous stall.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ckpt/ckpt.hpp"
#include "ckpt/workloads.hpp"
#include "exp/resilience.hpp"
#include "exp/table.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

constexpr std::size_t kIoNodes = 4;
constexpr double kMtbf = 60.0;    // cluster-wide crash rate (s)
constexpr double kOutage = 5.0;   // reboot window per crash (s)

ckpt::Report run_once(int interval_steps, double scale,
                      ckpt::Policy pol = {}) {
  simkit::Engine eng;
  hw::MachineConfig mc = hw::MachineConfig::paragon_large(8, kIoNodes);
  hw::Machine machine(eng, mc);

  // The same plan for every interval: runs differ only in checkpoint
  // policy, so exec-time differences are attributable to it.
  fault::Injector injector(fault::InjectionPlan::poisson_node_crashes(
      kIoNodes, kMtbf, kOutage, /*horizon=*/50000.0, /*seed=*/15));
  pfs::StripedFs fs(machine, &injector);

  apps::ScfConfig sc;
  sc.nprocs = 8;
  sc.io_nodes = kIoNodes;
  sc.n_basis = 140;  // MEDIUM problem, many iterations
  sc.iterations = 49;
  sc.scale = scale;
  ckpt::Workload w = ckpt::scf11_workload(sc);
  // Checkpoint the full restart volume (density/Fock plus the screening
  // and geometry tables a cold restart needs), not just the matrices —
  // this is what puts a real price on checkpointing too often.
  w.state_bytes_per_rank = 8ULL << 20;

  ckpt::Options opt;
  opt.ckpt_interval_steps = interval_steps;
  opt.policy = pol;
  // Alternate full/delta checkpoints: restart replays at most one delta,
  // so chain recovery stays near sync_full cost while the byte savings
  // (and for async, the faster-committing drains) remain.
  opt.policy.full_every = 2;
  opt.retry.max_attempts = 4;
  opt.retry.backoff_ms = 5.0;
  return ckpt::run(machine, fs, &injector, w, opt);
}

double total_overhead(const ckpt::Report& r) {
  return r.ckpt_overhead + r.lost_work + r.recovery_time;
}

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  // Default (no --policy flag) is sync_full and prints byte-identically to
  // the pre-policy bench — the determinism CI job pins that.
  const bool policy_given = !opt.policy.empty();
  ckpt::Policy pol;
  if (policy_given) {
    const auto parsed = ckpt::Policy::parse(opt.policy);
    if (!parsed) {
      throw scenario::UsageError(
          "unknown --policy=" + opt.policy +
          " (want sync_full | sync_incr | async_full | async_incr)");
    }
    pol = *parsed;
  }

  const std::vector<int> intervals = {1, 2, 4, 8, 16, 24, 0};
  const std::vector<ckpt::Report> reps = ctx.map<ckpt::Report>(
      intervals.size(), [&](std::size_t i) {
        return run_once(intervals[i], opt.scale, pol);
      });

  expt::Table table({"ckpt every", "exec (s)", "ckpt ovhd (s)",
                     "lost work (s)", "recovery (s)", "ckpts", "restarts"});
  int best = -1;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    const int iv = intervals[i];
    const ckpt::Report& r = reps[i];
    table.add_row({iv == 0 ? "never" : expt::fmt_u64(iv) + " steps",
                   expt::fmt_s(r.exec_time), expt::fmt_s(r.ckpt_overhead),
                   expt::fmt_s(r.lost_work), expt::fmt_s(r.recovery_time),
                   expt::fmt_u64(r.checkpoints), expt::fmt_u64(r.restarts)});
    if (best < 0 || r.exec_time < reps[static_cast<std::size_t>(best)]
                                      .exec_time) {
      best = static_cast<int>(i);
    }
  }

  ctx.printf("Fault+checkpoint: SCF 1.1 (MEDIUM, 8 procs, %zu I/O nodes), "
             "poisson crashes MTBF=%.0fs outage=%.0fs%s\n%s\n",
             kIoNodes, kMtbf, kOutage,
             policy_given ? (", policy=" + pol.name()).c_str() : "",
             ctx.table(table).c_str());
  const ckpt::Report& best_rep = reps[static_cast<std::size_t>(best)];
  ctx.printf("Best interval: %s\n%s%s\n",
             intervals[static_cast<std::size_t>(best)] == 0
                 ? "never"
                 : expt::fmt_u64(intervals[static_cast<std::size_t>(best)])
                       .c_str(),
             ctx.table(expt::resilience_table(best_rep)).c_str(),
             expt::resilience_summary(best_rep, nullptr).c_str());

  // Young/Daly analytical optimum from measured per-checkpoint cost (the
  // interval-1 run averages it over the most checkpoints) and the
  // productive step duration of the never-checkpoint run.
  const ckpt::Report& every = reps.front();
  const ckpt::Report& never = reps.back();
  const double ckpt_cost =
      every.checkpoints > 0 ? every.ckpt_overhead / every.checkpoints : 0.0;
  const int steps = 48;  // scf11_workload: iterations - 1
  const double step_s =
      (never.exec_time - never.lost_work - never.recovery_time) / steps;
  const double opt_s = ckpt::young_daly_interval(ckpt_cost, kMtbf);
  const double opt_steps = step_s > 0.0 ? opt_s / step_s : 0.0;
  ctx.printf("Young/Daly optimum: checkpoint every %.1f s = %.1f steps "
             "(ckpt cost %.2f s, step %.2f s, MTBF %.0f s)\n\n",
             opt_s, opt_steps, ckpt_cost, step_s, kMtbf);

  // With --policy: compare all four policies at the *sync_full* Young/Daly
  // interval (the classic analysis prices a blocking full checkpoint; the
  // software techniques then lower the bill at that same cadence).
  std::vector<ckpt::Report> cmp;
  int yd_steps = 0;
  if (policy_given) {
    ckpt::Report sync_every =
        pol.is_sync_full()
            ? every
            : ctx.map<ckpt::Report>(1, [&](std::size_t) {
                return run_once(1, opt.scale, ckpt::Policy{});
              })[0];
    const double sync_cost =
        sync_every.checkpoints > 0
            ? sync_every.ckpt_overhead / sync_every.checkpoints
            : 0.0;
    const double sync_opt_s = ckpt::young_daly_interval(sync_cost, kMtbf);
    yd_steps = step_s > 0.0
                   ? std::max(1, static_cast<int>(std::lround(
                                     sync_opt_s / step_s)))
                   : 1;
    const char* names[] = {"sync_full", "sync_incr", "async_full",
                           "async_incr"};
    cmp = ctx.map<ckpt::Report>(std::size(names), [&](std::size_t i) {
      return run_once(yd_steps, opt.scale, *ckpt::Policy::parse(names[i]));
    });
    expt::Table pt({"policy", "exec (s)", "blocked (s)", "lost (s)",
                    "recovery (s)", "total ovhd (s)", "ckpts (f+d)",
                    "dropped", "MB"});
    for (std::size_t i = 0; i < std::size(names); ++i) {
      const ckpt::Report& r = cmp[i];
      pt.add_row({names[i], expt::fmt_s(r.exec_time),
                  expt::fmt_s(r.ckpt_overhead), expt::fmt_s(r.lost_work),
                  expt::fmt_s(r.recovery_time),
                  expt::fmt_s(total_overhead(r)),
                  expt::fmt_u64(r.full_checkpoints) + "+" +
                      expt::fmt_u64(r.delta_checkpoints),
                  expt::fmt_u64(r.dropped_checkpoints),
                  expt::fmt("%.1f",
                            static_cast<double>(r.ckpt_bytes) / 1e6)});
    }
    ctx.printf("Policy comparison at Young/Daly interval (%d steps):\n%s\n",
               yd_steps, ctx.table(pt).c_str());
  }

  bool all_done = true;
  for (const auto& r : reps) all_done = all_done && r.completed;
  ctx.expect(all_done, "every configuration runs to completion");
  if (!policy_given || pol.is_sync_full()) {
    // The interior-minimum shape is a property of *blocking* full
    // checkpoints; async/incremental flatten the checkpoint-cost side
    // of the tradeoff, so these sweep shapes only bind for sync_full.
    ctx.expect(intervals[static_cast<std::size_t>(best)] != 0,
               "checkpointing beats never checkpointing under crashes");
    ctx.expect(static_cast<std::size_t>(best) != 0,
               "an interior interval beats checkpointing every step");
    ctx.expect(never.lost_work > reps[static_cast<std::size_t>(best)].lost_work,
               "longer intervals lose more work per crash");
    // The swept minimum should land within one grid notch of the
    // analytical optimum (the interval grid is 2x-spaced, so a factor-3
    // band around Young/Daly covers exactly the neighbouring notches).
    const double best_steps =
        static_cast<double>(intervals[static_cast<std::size_t>(best)]);
    ctx.expect(opt_steps > 0.0 && best_steps > opt_steps / 3.0 &&
                   best_steps < opt_steps * 3.0,
               "swept best interval (" + expt::fmt("%.0f", best_steps) +
                   " steps) within one grid notch of Young/Daly (" +
                   expt::fmt("%.1f", opt_steps) + " steps)");
  }
  if (policy_given) {
    const ckpt::Report& sf = cmp[0];
    const ckpt::Report& si = cmp[1];
    const ckpt::Report& af = cmp[2];
    const ckpt::Report& ai = cmp[3];
    bool cmp_done = true;
    for (const auto& r : cmp) cmp_done = cmp_done && r.completed;
    ctx.expect(cmp_done, "every policy completes at the Y/D interval");
    ctx.expect(total_overhead(ai) < total_overhead(sf),
               "async_incr total overhead (" +
                   expt::fmt_s(total_overhead(ai)) +
                   " s) beats sync_full (" +
                   expt::fmt_s(total_overhead(sf)) + " s)");
    ctx.expect(si.ckpt_bytes < sf.ckpt_bytes && ai.ckpt_bytes < af.ckpt_bytes,
               "incremental writes fewer checkpoint bytes than full");
    ctx.expect(af.ckpt_overhead < sf.ckpt_overhead &&
                   ai.ckpt_overhead < si.ckpt_overhead,
               "async blocks ranks for less time than sync");
  }
}

const scenario::Registration reg{{
    .name = "fault_ckpt",
    .title = "Fault+checkpoint: interval sweep under injected crashes",
    .description =
        "Replays one crash plan against a sweep of checkpoint intervals "
        "for SCF 1.1, plus a four-policy comparison via --policy=NAME. "
        "--check asserts the interior optimum lands within a grid notch "
        "of the Young/Daly interval.",
    .default_scale = 0.25,
    .grid = {{"interval", {"1", "2", "4", "8", "16", "24", "never"}}},
    .run = run,
}};

}  // namespace
