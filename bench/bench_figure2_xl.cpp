// Scenario "figure2_xl" — the Figure-2 crossover at modern scale.
//
// The paper's Figure 2 shows software optimization (PASSION prefetch on 16
// I/O nodes) beating hardware scaling (64 I/O nodes, unoptimized) up to a
// crossover processor count, beyond which the balanced machine wins.  This
// scenario replays that experiment three orders of magnitude up, on the
// paragon_xl preset (1024-2048 compute nodes, 64-128 I/O servers): the
// "software" axis is the hierarchical two-phase path (two-level leader
// collectives, one aggregator per I/O server) and the "hardware" axis is
// doubling the I/O partition while keeping the flat collectives.
//
// Each step is a collective read of a fixed total volume interleaved over
// all ranks (strong scaling, like the paper's fixed LARGE problem).  Flat
// two-phase pays a per-rank message floor that grows linearly with P (the
// alltoallv touches every pair) plus P small I/O calls.  The hierarchical
// path funnels data through the leaders, and its cost hinges on how the
// leader groups align with the file domains: below scale a group's records
// straddle other groups' domains and the data transits two leader hops,
// so doubling the I/O hardware (flat/128io) wins.  At 2048 nodes the group
// width matches the records-per-domain, every group's data lands in its
// own leader's domain (the alignment ROMIO's cb_config seeks on purpose),
// the leader exchange round carries nothing, and hier/64 overtakes
// flat/128 on half the hardware — Figure 2's crossover shape, three
// orders of magnitude up.
#include <cstdio>
#include <functional>
#include <vector>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "metrics/metrics.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "pario/twophase.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

// Fixed total collective volume per step (strong scaling) in 64 KiB
// records, interleaved round-robin so every rank's pieces scatter across
// every aggregator domain.
constexpr std::uint64_t kRecBytes = 64 * 1024;
constexpr std::uint64_t kTotalBytes = 128ULL << 20;
constexpr std::uint64_t kRecs = kTotalBytes / kRecBytes;

std::vector<pario::Extent> step_pieces(int rank, int p, int step) {
  std::vector<pario::Extent> out;
  const std::uint64_t base = static_cast<std::uint64_t>(step) * kTotalBytes;
  std::uint64_t buf = 0;
  for (std::uint64_t i = static_cast<std::uint64_t>(rank); i < kRecs;
       i += static_cast<std::uint64_t>(p)) {
    out.push_back(pario::Extent{base + i * kRecBytes, kRecBytes, buf});
    buf += kRecBytes;
  }
  return out;
}

struct Cell {
  bool hier;
  std::size_t io;
};

struct PointResult {
  double exec = 0.0;
  double a2a_msgs = 0.0;
};

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<int> procs = {1024, 1536, 2048};
  // Column order: flat/64io, hier/64io, flat/128io, hier/128io.
  const std::vector<Cell> cells = {
      {false, 64}, {true, 64}, {false, 128}, {true, 128}};
  // --scale sets the step count (the volume per step is pinned — the
  // crossover position depends on it), so reduced-scale CI smokes keep
  // the full qualitative shape.
  const int steps =
      std::max(1, static_cast<int>(opt.scale * 2.0 + 0.5));

  const std::vector<PointResult> res = ctx.map<PointResult>(
      procs.size() * cells.size(), [&](std::size_t i) {
        const int p = procs[i / cells.size()];
        const Cell& c = cells[i % cells.size()];
        // The mprt.alltoall.* instruments must be readable even without
        // --metrics: install a local registry for the point and fold it
        // into the ambient one (the per-point registry under --metrics)
        // afterwards.
        metrics::Registry* outer = metrics::current();
        metrics::Registry local;
        PointResult out;
        {
          metrics::Scope scope(local);
          simkit::Engine eng;
          hw::Machine machine(
              eng, hw::MachineConfig::paragon_xl(
                       static_cast<std::size_t>(p), c.io));
          pfs::StripedFs fs(machine);
          const pfs::FileId f = fs.create("xl_dump");
          mprt::Cluster cluster(machine, p);
          if (c.hier) {
            // One aggregator (group leader) per I/O server.
            cluster.set_topology(
                {mprt::CollectiveTopology::Kind::kTwoLevel,
                 p / static_cast<int>(c.io)});
          }
          const std::function<simkit::Task<void>(mprt::Comm&)> body =
              [&](mprt::Comm& cm) -> simkit::Task<void> {
            for (int s = 0; s < steps; ++s) {
              auto mine = step_pieces(cm.rank(), p, s);
              co_await pario::TwoPhase::read(cm, fs, f, std::move(mine));
            }
          };
          eng.spawn(cluster.run(body));
          eng.run();
          out.exec = eng.now();
        }
        out.a2a_msgs = static_cast<double>(
            local.counter("mprt.alltoall.msgs").value());
        if (outer) outer->merge(local);
        return out;
      });

  auto at = [&](std::size_t pi, std::size_t ci) -> const PointResult& {
    return res[pi * cells.size() + ci];
  };

  expt::Table table({"procs", "flat/64io exec", "hier/64io exec",
                     "flat/128io exec", "hier/128io exec"});
  expt::Table msgs({"procs", "flat a2a msgs", "hier a2a msgs", "ratio"});
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    table.add_row(
        {expt::fmt_u64(static_cast<unsigned long long>(procs[pi])),
         expt::fmt("%.4f", at(pi, 0).exec),
         expt::fmt("%.4f", at(pi, 1).exec),
         expt::fmt("%.4f", at(pi, 2).exec),
         expt::fmt("%.4f", at(pi, 3).exec)});
    msgs.add_row(
        {expt::fmt_u64(static_cast<unsigned long long>(procs[pi])),
         expt::fmt_u64(static_cast<unsigned long long>(at(pi, 0).a2a_msgs)),
         expt::fmt_u64(static_cast<unsigned long long>(at(pi, 1).a2a_msgs)),
         expt::fmt("%.1f", at(pi, 0).a2a_msgs /
                              std::max(at(pi, 1).a2a_msgs, 1.0))});
  }
  ctx.printf(
      "Figure 2 at scale: collective dump-step time vs compute nodes\n%s\n",
      ctx.table(table).c_str());
  ctx.printf("Exchange messages per run (alltoallv traffic)\n%s\n",
             ctx.table(msgs).c_str());

  // Report the measured crossover between hardware scaling (flat/128io)
  // and software aggregation (hier/64io).
  std::size_t cross = procs.size();
  for (std::size_t pi = 0; pi + 1 < procs.size(); ++pi) {
    if (at(pi, 2).exec <= at(pi, 1).exec &&
        at(pi + 1, 1).exec < at(pi + 1, 2).exec) {
      cross = pi + 1;
    }
  }
  if (cross < procs.size()) {
    ctx.printf("crossover: hier/64io overtakes flat/128io at %d nodes\n",
               procs[cross]);
  } else {
    ctx.printf("crossover: none within the sweep\n");
  }

  const std::size_t last = procs.size() - 1;
  // Below the crossover, doubling the I/O partition beats software
  // aggregation (hardware wins first, as in Figure 2).
  ctx.expect(at(0, 2).exec < at(0, 1).exec,
             "at 1024 nodes flat/128io beats hier/64io");
  // Past it, aggregation on HALF the I/O hardware wins.
  ctx.expect(at(last, 1).exec < at(last, 2).exec,
             "at 2048 nodes hier/64io beats flat/128io (crossover)");
  ctx.expect(cross < procs.size(), "crossover exists within the node sweep");
  // Aggregation must win against flat on equal hardware at scale.
  ctx.expect(at(last, 1).exec < at(last, 0).exec,
             "at 2048 nodes hier/64io beats flat/64io");
  // The aggregator topology's raison d'etre: >= 10x fewer exchange
  // messages than flat at every swept node count.
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    ctx.expect(at(pi, 0).a2a_msgs >= 10.0 * at(pi, 1).a2a_msgs,
               "hier cuts alltoallv messages >= 10x vs flat");
  }
}

const scenario::Registration reg{{
    .name = "figure2_xl",
    .title = "Figure 2 at scale: aggregation vs I/O hardware, 1024-2048 "
             "nodes",
    .description =
        "Replays the Figure-2 crossover on the paragon_xl preset: "
        "hierarchical two-phase aggregation on 64 I/O servers vs flat "
        "collectives on 128.  --check asserts the crossover and that the "
        "aggregator topology cuts exchange messages >= 10x.",
    .default_scale = 0.5,
    .grid = {{"procs", {"1024", "1536", "2048"}},
             {"variant",
              {"flat/64io", "hier/64io", "flat/128io", "hier/128io"}}},
    .run = run,
}};

}  // namespace
