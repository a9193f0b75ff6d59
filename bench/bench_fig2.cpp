// Scenario "fig2" — reproduces Figure 2: SCF 1.1 (LARGE) performance
// summary over large processor counts.
//
// Paper finding: up to ~64 processors the software-optimized version on 16
// I/O nodes wins; beyond that the machine is I/O-starved and the
// UNOPTIMIZED version on 64 I/O nodes overtakes the optimized one on 16 —
// architecture balance beats software past the crossover.
#include <cstdio>
#include <vector>

#include "apps/scf.hpp"
#include "exp/table.hpp"
#include "scenario/scenario.hpp"

namespace {

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<int> procs = {4, 16, 32, 64, 128, 256};
  struct Cell {
    apps::ScfVersion v;
    std::size_t sf;
  };
  // Column order matches the table: unopt/16, opt/16, unopt/64, opt/64,
  // direct (the no-I/O recompute version).
  const std::vector<Cell> cells = {
      {apps::ScfVersion::kOriginal, 16},
      {apps::ScfVersion::kPassionPrefetch, 16},
      {apps::ScfVersion::kOriginal, 64},
      {apps::ScfVersion::kPassionPrefetch, 64},
      {apps::ScfVersion::kDirect, 16},
  };
  const std::vector<double> exec =
      ctx.map<double>(procs.size() * cells.size(), [&](std::size_t i) {
        const int p = procs[i / cells.size()];
        const Cell& c = cells[i % cells.size()];
        apps::ScfConfig cfg;
        cfg.version = c.v;
        cfg.nprocs = p;
        cfg.io_nodes = c.sf;
        cfg.n_basis = 285;
        cfg.iterations = 15;
        cfg.scale = opt.scale;
        return apps::run_scf11(cfg).exec_time;
      });

  expt::Table table({"procs", "unopt/16io exec", "opt/16io exec",
                     "unopt/64io exec", "opt/64io exec", "direct (no I/O)"});
  std::vector<double> u16, o16, u64v, o64, direct;
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    const double* row = &exec[pi * cells.size()];
    u16.push_back(row[0]);
    o16.push_back(row[1]);
    u64v.push_back(row[2]);
    o64.push_back(row[3]);
    direct.push_back(row[4]);
    table.add_row(
        {expt::fmt_u64(static_cast<unsigned long long>(procs[pi])),
         expt::fmt_s(u16.back()), expt::fmt_s(o16.back()),
         expt::fmt_s(u64v.back()), expt::fmt_s(o64.back()),
         expt::fmt_s(direct.back())});
  }
  ctx.printf("Figure 2: SCF 1.1 LARGE, execution time vs processors\n%s\n",
             ctx.table(table).c_str());

  // Small P: software optimization beats extra hardware.
  ctx.expect(o16.front() < u16.front(),
             "at 4 procs the optimized/16-I/O version beats unopt/16");
  ctx.expect(o16.front() < u64v.front(),
             "at 4 procs software beats the 64-I/O unoptimized version");
  // Large P: hardware balance wins — unopt/64 overtakes opt/16.
  const std::size_t last = procs.size() - 1;
  ctx.expect(u64v[last] < o16[last],
             "at 256 procs unopt/64-I/O beats opt/16-I/O (crossover)");
  // There is a crossover point somewhere in the sweep.
  bool crossed = false;
  for (std::size_t i = 0; i + 1 < procs.size(); ++i) {
    if (o16[i] <= u64v[i] && u64v[i + 1] < o16[i + 1]) crossed = true;
  }
  ctx.expect(crossed, "crossover exists within the processor sweep");
  // The paper's user behaviour: disk-based wins at small P, the
  // recompute ("direct") version wins on a starved partition at large P.
  ctx.expect(o16.front() < direct.front(),
             "disk-based beats recompute at 4 procs");
  ctx.expect(direct[last] < o16[last],
             "recompute beats disk-based/16-I/O at 256 procs");
}

const scenario::Registration reg{{
    .name = "fig2",
    .title = "Figure 2: SCF 1.1 LARGE execution time vs processor count",
    .description =
        "Scales SCF 1.1 LARGE to 256 processors on 16 vs 64 I/O nodes. "
        "--check asserts the crossover: software optimization wins up to "
        "~64 processors, then the unoptimized code on the bigger I/O "
        "partition overtakes it (architecture balance beats software).",
    .default_scale = 0.5,
    .grid = {{"procs", {"4", "16", "32", "64", "128", "256"}},
             {"variant",
              {"unopt/16io", "opt/16io", "unopt/64io", "opt/64io",
               "direct"}}},
    .run = run,
}};

}  // namespace
