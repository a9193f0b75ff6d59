// Scenario "fig6" — reproduces Figure 6: BTIO (Class A, 408.9 MB) on the
// SP-2 — I/O time and total time vs processor count for the Unix-style
// and two-phase collective versions.
//
// Paper findings: the unoptimized I/O time moves erratically with the
// processor count and puts a hump in total time around 36 processors;
// collective I/O removes it (46%/49% total reduction at 36/64 procs).
#include <cstdio>
#include <vector>

#include "apps/btio.hpp"
#include "exp/table.hpp"
#include "scenario/scenario.hpp"

namespace {

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<int> procs = {1, 4, 9, 16, 25, 36, 49, 64};
  const std::vector<apps::RunResult> results =
      ctx.map<apps::RunResult>(procs.size() * 2, [&](std::size_t i) {
        apps::BtioConfig cfg;
        cfg.problem_class = 'A';
        cfg.nprocs = procs[i / 2];
        cfg.collective = (i % 2) == 1;
        cfg.scale = opt.scale;
        return apps::run_btio(cfg);
      });

  expt::Table table({"procs", "unopt I/O (s)", "opt I/O (s)",
                     "unopt total (s)", "opt total (s)", "reduction"});
  std::vector<double> u_total, o_total, u_io;
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    const int p = procs[pi];
    const apps::RunResult& u = results[pi * 2 + 0];
    const apps::RunResult& o = results[pi * 2 + 1];
    u_total.push_back(u.exec_time);
    o_total.push_back(o.exec_time);
    u_io.push_back(u.io_time / p);
    table.add_row(
        {expt::fmt_u64(static_cast<unsigned long long>(p)),
         expt::fmt_s(u.io_time / p), expt::fmt_s(o.io_time / p),
         expt::fmt_s(u.exec_time), expt::fmt_s(o.exec_time),
         expt::fmt("%.0f%%", 100.0 * (1.0 - o.exec_time / u.exec_time))});
  }
  ctx.printf("Figure 6: BTIO Class A (%.1f MB total I/O), SP-2\n%s\n",
             opt.scale * 419.4, ctx.table(table).c_str());

  const std::size_t i36 = 5;  // index of 36 procs
  ctx.expect(o_total[i36] < u_total[i36], "collective I/O wins at 36 procs");
  const double red36 = 1.0 - o_total[i36] / u_total[i36];
  ctx.expect(red36 > 0.25 && red36 < 0.70,
             "total-time reduction at 36 procs near the paper's 46%");
  // The unoptimized version's I/O time does not improve the way compute
  // does: its share of total grows with P (the hump's cause).
  ctx.expect(u_io.back() / u_total.back() > u_io.front() / u_total.front(),
             "unopt I/O share grows with processor count");
}

const scenario::Registration reg{{
    .name = "fig6",
    .title = "Figure 6: BTIO Class A collective vs Unix-style I/O",
    .description =
        "Runs BTIO Class A on the SP-2 model, Unix-style vs two-phase "
        "collective. --check asserts the unoptimized hump in total time "
        "around 36 processors and the large collective-I/O reduction at "
        "36/64 processors.",
    .default_scale = 0.5,
    .grid = {{"procs", {"1", "4", "9", "16", "25", "36", "49", "64"}},
             {"variant", {"unopt", "collective"}}},
    .run = run,
}};

}  // namespace
