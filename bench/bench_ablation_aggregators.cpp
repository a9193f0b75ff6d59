// Scenario "ablation_aggregators" — two-phase aggregator count (ROMIO
// cb_nodes) on the paper's SP-2 — how many of the P processes should
// perform the file I/O in a collective write when only 4 I/O nodes exist?
//
// With the exchange phase absorbing the redistribution, the I/O phase
// wants roughly as many aggregators as the file system has service
// capacity; far more aggregators than I/O nodes just adds interleaving.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "mprt/comm.hpp"
#include "pario/twophase.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

double run_with_aggregators(int procs, int aggregators) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::sp2(
                               static_cast<std::size_t>(procs)));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("cb");
  return mprt::Cluster::execute(
      machine, procs, [&](mprt::Comm& c) -> simkit::Task<void> {
        // BTIO-like interleaved pencils, two dumps.
        for (int dump = 0; dump < 2; ++dump) {
          std::vector<pario::Extent> mine;
          for (std::uint64_t i = 0; i < 4096 / static_cast<std::uint64_t>(
                                                   c.size());
               ++i) {
            const std::uint64_t rec =
                static_cast<std::uint64_t>(c.rank()) +
                i * static_cast<std::uint64_t>(c.size());
            mine.push_back(pario::Extent{
                (static_cast<std::uint64_t>(dump) * 4096 + rec) * 2560,
                2560, i * 2560});
          }
          pario::TwoPhaseOptions opt;
          opt.aggregators = aggregators;
          co_await pario::TwoPhase::write(c, fs, f, std::move(mine), {},
                                          nullptr, opt);
        }
      });
}

void run(scenario::Context& ctx) {
  constexpr int kProcs = 36;
  const int agg_counts[] = {1, 2, 4, 8, 16, 36};
  const std::vector<double> times =
      ctx.map<double>(std::size(agg_counts), [&](std::size_t i) {
        return run_with_aggregators(kProcs, agg_counts[i]);
      });

  expt::Table table({"aggregators", "exec (s)"});
  double best = 1e30, all_ranks = 0;
  for (std::size_t i = 0; i < std::size(agg_counts); ++i) {
    const double t = times[i];
    if (agg_counts[i] == kProcs) all_ranks = t;
    best = std::min(best, t);
    table.add_row(
        {expt::fmt_u64(static_cast<unsigned long long>(agg_counts[i])),
         expt::fmt("%.2f", t)});
  }
  ctx.printf("Ablation: collective-buffering aggregator count, %d procs "
             "on the 4-I/O-node SP-2\n%s\n",
             kProcs, ctx.table(table).c_str());

  ctx.expect(best <= all_ranks * 1.05,
             "a tuned aggregator count is at least as good as all-ranks");
  ctx.expect(all_ranks / best < 4.0,
             "and the penalty for the naive choice stays bounded");
}

const scenario::Registration reg{{
    .name = "ablation_aggregators",
    .title = "Ablation: two-phase aggregator (cb_nodes) count",
    .description =
        "Sweeps how many ranks perform the file I/O in a collective "
        "write on a 4-I/O-node SP-2. --check asserts the sweet spot "
        "tracks the file system's service capacity, not the rank count.",
    .default_scale = 1.0,
    .grid = {{"aggregators", {"1", "2", "4", "8", "16", "36"}}},
    .run = run,
}};

}  // namespace
