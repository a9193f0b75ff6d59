// Scenario "fault_correlated" — correlated rack failures vs. checkpoint
// placement and health-aware recovery, on an MTBF-matched fault clock.
//
// Three runs of SCF 1.1 share the exact same exponential fault-event
// instants (the correlated generator draws a fixed number of RNG values
// per event, so sweeping the correlated fraction changes only the blast
// radius, never the clock):
//   independent        every event crashes one node cleanly; domain-aware
//                      mirror placement + health-aware recovery armed (the
//                      adaptation is free when faults are uncorrelated)
//   corr same-domain   half the events take a whole rack down with scrubbed
//                      disks; primary AND mirror sit behind rack switch 0,
//                      so one power event destroys every checkpoint copy
//   corr domain-aware  same bursts, but the mirror lives behind the other
//                      rack switch and health-aware recovery restores from
//                      the survivor, hedges the reads, and re-mirrors the
//                      scrubbed copy
// A Markov disk-arm model (healthy <-> sticky <-> stuck) runs in every
// row, so hedged restore reads have real stragglers to beat.
//
// --check asserts the robustness claim: domain-aware placement plus
// health-aware recovery loses NO committed checkpoints under rack bursts,
// same-domain placement loses at least one, and the adaptation keeps
// total resilience overhead within 15% of the independent-fault baseline.
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
constexpr std::size_t kFanIn = 2;       // 2 racks x 2 I/O nodes
constexpr double kMtbf = 60.0;          // fault-event rate (s)
constexpr double kOutage = 12.0;        // reboot window per event (s)
constexpr double kCrashHorizon = 50000.0;
constexpr double kMarkovHorizon = 2000.0;
constexpr double kFraction = 0.5;       // correlated share of events

struct RowCfg {
  const char* label;
  double fraction;
  ckpt::Options::Placement placement;
  bool health_aware;
};

ckpt::Report run_once(const RowCfg& cfg, double scale, std::uint64_t seed,
                      std::string* detail) {
  simkit::Engine eng;
  hw::MachineConfig mc = hw::MachineConfig::paragon_large(8, kIoNodes);
  mc.io_nodes_per_switch = kFanIn;
  hw::Machine machine(eng, mc);

  fault::InjectionPlan plan = fault::InjectionPlan::correlated_node_crashes(
      kIoNodes, kFanIn, kMtbf, kOutage, cfg.fraction, kCrashHorizon, seed);
  plan.with_markov_disks(kMarkovHorizon);
  fault::Injector injector(std::move(plan));
  pfs::StripedFs fs(machine, &injector);

  apps::ScfConfig sc;
  sc.nprocs = 8;
  sc.io_nodes = kIoNodes;
  sc.n_basis = 140;  // MEDIUM problem, many iterations
  sc.iterations = 49;
  sc.scale = scale;
  ckpt::Workload w = ckpt::scf11_workload(sc);
  w.state_bytes_per_rank = 4ULL << 20;

  ckpt::Options opt;
  opt.ckpt_interval_steps = 4;
  opt.retry.max_attempts = 4;
  opt.retry.backoff_ms = 5.0;
  opt.replicate_checkpoint = true;
  opt.placement = cfg.placement;
  opt.health_aware = cfg.health_aware;
  // Restore reads are MB-scale pieces while the tracker's EWMA is fed by
  // the small per-step reads, so a low multiple would hedge every healthy
  // restore; 12x only fires for genuinely sticking arms and down racks.
  opt.hedge_latency_multiple = 12.0;
  // Same-domain placement restarts from step 0 every time a rack burst
  // scrubs both copies; give it the restarts to eventually finish.
  opt.max_restarts = 256;
  const ckpt::Report rep = ckpt::run(machine, fs, &injector, w, opt);
  if (detail) *detail = expt::resilience_summary(rep, &injector);
  return rep;
}

double total_overhead(const ckpt::Report& r) {
  return r.ckpt_overhead + r.lost_work + r.recovery_time;
}

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<RowCfg> rows = {
      {"independent", 0.0, ckpt::Options::Placement::kOtherDomain, true},
      {"corr same-domain", kFraction,
       ckpt::Options::Placement::kSameDomain, false},
      {"corr domain-aware", kFraction,
       ckpt::Options::Placement::kOtherDomain, true},
  };

  struct Point {
    ckpt::Report rep;
    std::string detail;
  };
  const std::vector<Point> points =
      ctx.map<Point>(rows.size(), [&](std::size_t i) {
        const bool last = i + 1 == rows.size();
        Point p;
        p.rep = run_once(rows[i], opt.scale, opt.seed,
                         last ? &p.detail : nullptr);
        return p;
      });

  expt::Table table({"faults / placement", "exec (s)", "ovhd (s)",
                     "lost ckpts", "re-mirrored", "hedged (won)",
                     "restarts"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ckpt::Report& r = points[i].rep;
    table.add_row({rows[i].label, expt::fmt_s(r.exec_time),
                   expt::fmt_s(total_overhead(r)),
                   expt::fmt_u64(r.lost_checkpoints),
                   expt::fmt_u64(r.divergences_repaired),
                   expt::fmt_u64(r.hedged_reads) + " (" +
                       expt::fmt_u64(r.hedge_wins) + ")",
                   expt::fmt_u64(r.restarts)});
  }

  ctx.printf(
      "Correlated failure domains: SCF 1.1 (MEDIUM, 8 procs, %zu I/O nodes "
      "in %zu racks), MTBF=%.0fs outage=%.0fs corr=%.0f%% seed=%llu, "
      "Markov disk arms\n%s\n",
      kIoNodes, kIoNodes / kFanIn, kMtbf, kOutage, 100.0 * kFraction,
      static_cast<unsigned long long>(opt.seed), ctx.table(table).c_str());
  ctx.printf("Domain-aware + health-aware run under correlated bursts:\n"
             "%s%s\n",
             ctx.table(expt::resilience_table(points.back().rep)).c_str(),
             points.back().detail.c_str());

  const ckpt::Report& indep = points[0].rep;
  const ckpt::Report& naive = points[1].rep;
  const ckpt::Report& aware = points[2].rep;
  bool all_done = true;
  for (const auto& p : points) all_done = all_done && p.rep.completed;
  ctx.expect(all_done, "every configuration runs to completion");
  bool verified = true;
  for (const auto& p : points) {
    verified = verified && p.rep.state_verified;
  }
  ctx.expect(verified, "every restore returned the committed bytes");
  ctx.expect(naive.lost_checkpoints >= 1,
             "same-domain placement loses committed checkpoints to rack "
             "bursts (" + expt::fmt_u64(naive.lost_checkpoints) + ")");
  ctx.expect(aware.lost_checkpoints == 0,
             "domain-aware placement + health-aware recovery loses none");
  ctx.expect(indep.lost_checkpoints == 0,
             "independent clean crashes never scrub a copy");
  ctx.expect(total_overhead(aware) <= 1.15 * total_overhead(indep),
             "adaptation keeps correlated-fault overhead (" +
                 expt::fmt_s(total_overhead(aware)) +
                 " s) within 15% of the independent baseline (" +
                 expt::fmt_s(total_overhead(indep)) + " s)");
}

const scenario::Registration reg{{
    .name = "fault_correlated",
    .title = "Correlated failure domains vs checkpoint placement",
    .description =
        "Runs SCF 1.1 on an MTBF-matched fault clock with independent "
        "crashes, rack-correlated crashes, and domain-aware placement "
        "plus health-aware recovery. --check asserts correlation hurts "
        "and the domain-aware adaptation claws the loss back.",
    .default_scale = 0.25,
    .grid = {{"row", {"independent", "corr_same_domain",
                      "corr_domain_aware"}}},
    .run = run,
}};

}  // namespace
