// Scenario "ablation_network" — network model fidelity (DESIGN.md §5.2).
//
// The simulator models endpoint (NIC) contention plus per-hop latency,
// not per-link wormhole contention.  This bench quantifies how much each
// component matters for the exchange phase of collective I/O: it times a
// 32-rank alltoallv while sweeping hop latency and NIC bandwidth.
// Expected: bandwidth dominates by orders of magnitude; hop latency is a
// small correction — which is why endpoint contention is the right
// fidelity class for these studies.
#include <cmath>
#include <cstdio>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

double run_exchange(double hop_us, double bw_mb) {
  simkit::Engine eng;
  hw::MachineConfig cfg = hw::MachineConfig::paragon_large(32, 12);
  cfg.net.per_hop_latency_us = hop_us;
  cfg.net.link_mb_per_s = bw_mb;
  hw::Machine machine(eng, cfg);
  return mprt::Cluster::execute(machine, 32, [](mprt::Comm& c)
                                                 -> simkit::Task<void> {
    // Each rank ships 64 KB to every rank (a 64 MB array
    // redistribution), timing only.
    std::vector<mprt::Outgoing> sends;
    for (mprt::Rank d = 0; d < c.size(); ++d) {
      sends.push_back({d, 64 * 1024, {}});
    }
    auto msgs = co_await mprt::alltoallv(c, std::move(sends));
    (void)msgs;
  });
}

void run(scenario::Context& ctx) {
  struct Point {
    double hop_us;
    double bw_mb;
  };
  // base, no_hops, slow_hops, slow_nic.
  const Point pts[] = {{0.6, 70.0}, {0.0, 70.0}, {6.0, 70.0}, {0.6, 17.5}};
  const std::vector<double> times =
      ctx.map<double>(std::size(pts), [&](std::size_t i) {
        return run_exchange(pts[i].hop_us, pts[i].bw_mb);
      });
  const double base = times[0];
  const double no_hops = times[1];
  const double slow_hops = times[2];
  const double slow_nic = times[3];

  expt::Table table({"hop latency us", "NIC MB/s", "alltoallv 32x64KB (s)"});
  table.add_row({"0.0", "70", expt::fmt("%.4f", no_hops)});
  table.add_row({"0.6 (preset)", "70", expt::fmt("%.4f", base)});
  table.add_row({"6.0", "70", expt::fmt("%.4f", slow_hops)});
  table.add_row({"0.6", "17.5", expt::fmt("%.4f", slow_nic)});
  ctx.printf("Ablation: exchange-phase sensitivity to network "
             "parameters\n%s\n",
             ctx.table(table).c_str());

  ctx.expect(std::abs(no_hops - base) / base < 0.05,
             "hop latency is a <5% effect at preset values");
  ctx.expect(slow_nic > 3.0 * base,
             "NIC bandwidth is a first-order effect (4x slower link)");
  ctx.expect(slow_hops < 1.5 * base,
             "even 10x hop latency stays a second-order effect");
}

const scenario::Registration reg{{
    .name = "ablation_network",
    .title = "Ablation: exchange-phase network-parameter sensitivity",
    .description =
        "Times a 32-rank alltoallv while zeroing hop latency or choking "
        "NIC bandwidth. --check asserts endpoint bandwidth dominates by "
        "orders of magnitude — the justification for the simulator's "
        "endpoint-contention fidelity class.",
    .default_scale = 1.0,
    .grid = {{"point", {"base", "no_hops", "slow_hops", "slow_nic"}}},
    .run = run,
}};

}  // namespace
