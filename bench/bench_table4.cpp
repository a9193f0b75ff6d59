// Scenario "table4" — reproduces Table 4: the astrophysics application
// (2K x 2K), execution times for 16/32/64/128 processors x {Chameleon,
// two-phase} x {16, 64 I/O nodes} on the Paragon.
//
// Paper findings: collective I/O is worth far more than quadrupling the
// I/O nodes; the optimized version flattens (and slightly regresses) at
// 128 processors.  Known deviation (see EXPERIMENTS.md): the paper's
// unoptimized column keeps falling through P=128, which is inconsistent
// with its own single-writer bottleneck; ours flattens at the funnel
// floor.
#include <cstdio>
#include <vector>

#include "apps/ast.hpp"
#include "exp/table.hpp"
#include "scenario/scenario.hpp"

namespace {

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<int> procs = {16, 32, 64, 128};
  struct Cell {
    bool coll;
    std::size_t io;
  };
  // Column order of the table: unopt/16, unopt/64, opt/16, opt/64.
  const std::vector<Cell> cells = {
      {false, 16}, {false, 64}, {true, 16}, {true, 64}};
  const std::vector<double> exec =
      ctx.map<double>(procs.size() * cells.size(), [&](std::size_t i) {
        const Cell& c = cells[i % cells.size()];
        apps::AstConfig cfg;
        cfg.grid = 2048;
        cfg.nprocs = procs[i / cells.size()];
        cfg.collective = c.coll;
        cfg.io_nodes = c.io;
        cfg.scale = opt.scale;
        return apps::run_ast(cfg).exec_time;
      });

  expt::Table table({"procs", "unopt 16io", "unopt 64io", "opt 16io",
                     "opt 64io"});
  std::vector<double> u16, o16, o64;
  double u64_at16 = 0;
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    const int p = procs[pi];
    const double* row = &exec[pi * cells.size()];
    if (p == 16) u64_at16 = row[1];
    u16.push_back(row[0]);
    o16.push_back(row[2]);
    o64.push_back(row[3]);
    table.add_row({expt::fmt_u64(static_cast<unsigned long long>(p)),
                   expt::fmt_s(row[0]), expt::fmt_s(row[1]),
                   expt::fmt_s(row[2]), expt::fmt_s(row[3])});
  }
  ctx.printf(
      "Table 4: AST (2K x 2K) execution times (s) on the Paragon\n%s\n",
      ctx.table(table).c_str());

  ctx.expect(o16[0] < u16[0] / 2.0,
             "collective I/O wins big at 16 procs (paper: 2557 vs 428)");
  ctx.expect(u64_at16 > 0.85 * u16[0],
             "quadrupling I/O nodes barely moves the unoptimized time");
  ctx.expect(o16[0] / o16[2] > 2.0,
             "optimized version scales from 16 to 64 procs");
  ctx.expect(o16[2] / o16[3] < 1.8,
             "optimized scaling degrades by 128 procs (paper: 76->86)");
}

const scenario::Registration reg{{
    .name = "table4",
    .title = "Table 4: AST execution times, collective vs Chameleon I/O",
    .description =
        "Runs the astrophysics dump workload across processors, I/O "
        "nodes, and I/O styles. --check asserts collective I/O is worth "
        "far more than quadrupling the I/O nodes (one documented "
        "deviation from the paper noted in EXPERIMENTS.md).",
    .default_scale = 0.25,
    .grid = {{"procs", {"16", "32", "64", "128"}},
             {"variant", {"unopt/16io", "unopt/64io", "opt/16io",
                          "opt/64io"}}},
    .run = run,
}};

}  // namespace
