// Scenario "ablation_scan" — disk scheduling discipline (FIFO vs SCAN)
// under the paper's scattered-access patterns.
//
// The reproduction's default is FIFO — the conservative choice, since PFS
// and PIOFS server documentation does not promise elevator scheduling —
// but real AIX/OSF device drivers did sweep.  This bench replays BTIO's
// unoptimized pencil writes under both disciplines: SCAN softens (but
// does not remove) the unoptimized penalty, so the paper's conclusions
// hold either way.
#include <algorithm>
#include <cstdio>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

double run_btio_pattern(bool scan, int procs) {
  simkit::Engine eng;
  hw::MachineConfig cfg = hw::MachineConfig::sp2(
      static_cast<std::size_t>(procs));
  cfg.io.scan_scheduling = scan;
  hw::Machine machine(eng, cfg);
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("scan");
  return mprt::Cluster::execute(
      machine, procs, [&](mprt::Comm& c) -> simkit::Task<void> {
        // One dump of Class-A pencils for this rank.
        const int per_rank = 4096 / c.size();
        for (int i = 0; i < per_rank; ++i) {
          const auto row = static_cast<std::uint64_t>(
              c.rank() + i * c.size());
          co_await fs.pwrite(c.node(), f, row * 2560, 2560);
        }
        co_await mprt::barrier(c);
      });
}

void run(scenario::Context& ctx) {
  const int procs[] = {4, 16, 64};
  struct Point {
    double fifo;
    double scan;
  };
  const std::vector<Point> points =
      ctx.map<Point>(std::size(procs), [&](std::size_t i) {
        return Point{run_btio_pattern(false, procs[i]),
                     run_btio_pattern(true, procs[i])};
      });

  expt::Table table({"procs", "FIFO (s)", "SCAN (s)", "SCAN speedup"});
  double worst_gain = 1e9;
  for (std::size_t i = 0; i < std::size(procs); ++i) {
    const Point& pt = points[i];
    worst_gain = std::min(worst_gain, pt.fifo / pt.scan);
    table.add_row(
        {expt::fmt_u64(static_cast<unsigned long long>(procs[i])),
         expt::fmt("%.2f", pt.fifo), expt::fmt("%.2f", pt.scan),
         expt::fmt("%.2fx", pt.fifo / pt.scan)});
  }
  ctx.printf("Ablation: disk scheduling under BTIO's scattered writes "
             "(one Class-A dump)\n%s\n",
             ctx.table(table).c_str());

  ctx.expect(worst_gain >= 0.95,
             "SCAN never loses to FIFO on scattered access");
}

const scenario::Registration reg{{
    .name = "ablation_scan",
    .title = "Ablation: FIFO vs SCAN disk scheduling",
    .description =
        "Replays BTIO's unoptimized pencil writes under FIFO and SCAN "
        "disk scheduling. --check asserts SCAN softens but does not "
        "remove the scattered-access penalty, so the paper's conclusions "
        "hold under either driver.",
    .default_scale = 1.0,
    .grid = {{"procs", {"4", "16", "64"}}, {"discipline", {"FIFO", "SCAN"}}},
    .run = run,
}};

}  // namespace
