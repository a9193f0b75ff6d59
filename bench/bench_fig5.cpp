// Scenario "fig5" — reproduces Figure 5: 2-D out-of-core FFT on the small
// Paragon — I/O time and total time for (a) the original program on 2 I/O
// nodes, (b) the original on 4, (c) the layout-optimized program on 2.
//
// Paper findings: the unoptimized I/O time RISES past 4 compute nodes
// with 2 I/O nodes (past 8 with 4); the optimized program on 2 I/O nodes
// beats the unoptimized on 4 for all processor sizes; I/O is 90-95% of
// execution.
#include <cstdio>
#include <vector>

#include "apps/fft_app.hpp"
#include "exp/table.hpp"
#include "scenario/scenario.hpp"

namespace {

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();
  // The paper runs N=4096 (1.5 GB total I/O) with 32 MB nodes.  We model
  // a proportionally scaled regime (N, application memory, and I/O-node
  // caches shrink together), which preserves the op-count ratios between
  // the program versions; see EXPERIMENTS.md.  Default N=1024 with 4 MB
  // strip memory; --full selects N=2048 with 8 MB.
  const std::uint64_t n = opt.scale >= 1.0 ? 2048 : 1024;
  const std::uint64_t mem = opt.scale >= 1.0 ? (8ULL << 20) : (4ULL << 20);

  const std::vector<int> procs = {1, 2, 4, 8, 16};
  struct Cell {
    bool optimized;
    std::size_t io;
  };
  const std::vector<Cell> cells = {{false, 2}, {false, 4}, {true, 2}};
  const std::vector<apps::FftResult> results = ctx.map<apps::FftResult>(
      procs.size() * cells.size(), [&](std::size_t i) {
        const Cell& c = cells[i % cells.size()];
        apps::FftConfig cfg;
        cfg.n = n;
        cfg.nprocs = procs[i / cells.size()];
        cfg.io_nodes = c.io;
        cfg.optimized_layout = c.optimized;
        cfg.mem_bytes = mem;
        return apps::run_fft(cfg);
      });

  expt::Table io_table({"procs", "orig 2io", "orig 4io", "opt 2io"});
  expt::Table total_table({"procs", "orig 2io", "orig 4io", "opt 2io"});
  std::vector<double> u2_io, u4_total, o2_total, u2_frac;
  for (std::size_t pi = 0; pi < procs.size(); ++pi) {
    const int p = procs[pi];
    const apps::FftResult& u2 = results[pi * cells.size() + 0];
    const apps::FftResult& u4 = results[pi * cells.size() + 1];
    const apps::FftResult& o2 = results[pi * cells.size() + 2];
    const double u2_io_wall = u2.io_time / p;
    io_table.add_row({expt::fmt_u64(static_cast<unsigned long long>(p)),
                      expt::fmt_s(u2_io_wall), expt::fmt_s(u4.io_time / p),
                      expt::fmt_s(o2.io_time / p)});
    total_table.add_row({expt::fmt_u64(static_cast<unsigned long long>(p)),
                         expt::fmt_s(u2.exec_time),
                         expt::fmt_s(u4.exec_time),
                         expt::fmt_s(o2.exec_time)});
    u2_io.push_back(u2_io_wall);
    u4_total.push_back(u4.exec_time);
    o2_total.push_back(o2.exec_time);
    u2_frac.push_back(u2.io_time / (u2.io_time + u2.compute_time));
  }
  ctx.printf("Figure 5a: FFT per-process I/O time (s), N=%llu (%.2f GB "
             "total I/O)\n%s\n",
             static_cast<unsigned long long>(n),
             6.0 * static_cast<double>(n) * n * 16 / 1e9,
             ctx.table(io_table).c_str());
  ctx.printf("Figure 5b: FFT total execution time (s)\n%s\n",
             ctx.table(total_table).c_str());

  ctx.expect(u2_io.back() > u2_io[2],
             "orig/2io I/O time increases past 4 compute nodes");
  bool opt_wins_everywhere = true;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    opt_wins_everywhere = opt_wins_everywhere && o2_total[i] < u4_total[i];
  }
  ctx.expect(opt_wins_everywhere,
             "opt on 2 I/O nodes beats orig on 4 for all proc counts");
  ctx.expect(u2_frac[2] > 0.8, "I/O dominates execution (paper: 90-95%)");
}

const scenario::Registration reg{{
    .name = "fig5",
    .title = "Figure 5: out-of-core FFT I/O and total time",
    .description =
        "Runs the 2-D out-of-core FFT on the small Paragon, original vs "
        "layout-optimized. --check asserts unoptimized I/O time rises "
        "with compute nodes and that the optimized program on 2 I/O "
        "nodes beats the original on 4 at every size.",
    .default_scale = 0.5,
    .grid = {{"procs", {"1", "2", "4", "8", "16"}},
             {"variant", {"orig/2io", "orig/4io", "opt/2io"}}},
    .run = run,
}};

}  // namespace
