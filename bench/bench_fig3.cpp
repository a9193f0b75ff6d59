// Scenario "fig3" — reproduces Figure 3: effect of the number of I/O
// nodes on SCF 1.1.
//
// Paper finding: more compute nodes mean more contention at the I/O
// nodes; increasing the I/O partition (12 -> 16 -> 64) relieves it, and
// the benefit grows with the processor count.
#include <cstdio>
#include <vector>

#include "apps/scf.hpp"
#include "exp/table.hpp"
#include "scenario/scenario.hpp"

namespace {

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<int> procs = {4, 16, 64, 256};
  const std::vector<std::size_t> io_nodes = {12, 16, 64};

  const std::vector<apps::RunResult> results = ctx.map<apps::RunResult>(
      procs.size() * io_nodes.size(), [&](std::size_t i) {
        apps::ScfConfig cfg;
        cfg.version = apps::ScfVersion::kOriginal;
        cfg.nprocs = procs[i / io_nodes.size()];
        cfg.io_nodes = io_nodes[i % io_nodes.size()];
        cfg.n_basis = 285;
        cfg.iterations = 15;
        cfg.scale = opt.scale;
        return apps::run_scf11(cfg);
      });

  expt::Table exec_table({"procs", "12 io nodes", "16 io nodes",
                          "64 io nodes"});
  expt::Table io_table({"procs", "12 io nodes", "16 io nodes",
                        "64 io nodes"});
  // gain[p] = exec(12 io) / exec(64 io) at processor count p.
  std::vector<double> gain;
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    const int p = procs[pi];
    std::vector<std::string> exec_row = {
        expt::fmt_u64(static_cast<unsigned long long>(p))};
    std::vector<std::string> io_row = exec_row;
    double exec12 = 0, exec64 = 0;
    for (std::size_t si = 0; si < io_nodes.size(); ++si) {
      const apps::RunResult& r = results[pi * io_nodes.size() + si];
      exec_row.push_back(expt::fmt_s(r.exec_time));
      io_row.push_back(expt::fmt_s(r.io_time / p));
      if (io_nodes[si] == 12) exec12 = r.exec_time;
      if (io_nodes[si] == 64) exec64 = r.exec_time;
    }
    gain.push_back(exec12 / exec64);
    exec_table.add_row(exec_row);
    io_table.add_row(io_row);
  }
  ctx.printf("Figure 3a: SCF 1.1 LARGE execution time (s)\n%s\n",
             ctx.table(exec_table).c_str());
  ctx.printf("Figure 3b: SCF 1.1 LARGE per-process I/O time (s)\n%s\n",
             ctx.table(io_table).c_str());

  ctx.expect(gain.back() > 1.3, "at 256 procs, 64 I/O nodes clearly beat 12");
  ctx.expect(gain.back() > gain.front(),
             "the I/O-node benefit grows with processor count");
}

const scenario::Registration reg{{
    .name = "fig3",
    .title = "Figure 3: I/O-node count vs contention for SCF 1.1",
    .description =
        "Sweeps the I/O partition (12/16/64 nodes) against the processor "
        "count. --check asserts contention grows with compute nodes and "
        "that widening the I/O partition relieves it more the more "
        "processors there are.",
    .default_scale = 0.5,
    .grid = {{"procs", {"4", "16", "64", "256"}},
             {"io_nodes", {"12", "16", "64"}}},
    .run = run,
}};

}  // namespace
