// Scenario "fig7" — reproduces Figure 7: BTIO I/O bandwidths, original vs
// two-phase collective, Class A and Class B.
//
// Paper reference points: original 0.97-1.5 MB/s; optimized 6.6-31.4 MB/s.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/btio.hpp"
#include "exp/table.hpp"
#include "scenario/scenario.hpp"

namespace {

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const std::vector<int> procs = {4, 16, 36, 64};
  const std::vector<char> classes = {'A', 'B'};
  struct Point {
    double orig_bw = 0.0;
    double opt_bw = 0.0;
  };
  const std::vector<Point> points = ctx.map<Point>(
      classes.size() * procs.size(), [&](std::size_t i) {
        apps::BtioConfig cfg;
        cfg.problem_class = classes[i / procs.size()];
        cfg.nprocs = procs[i % procs.size()];
        cfg.scale = opt.scale;
        cfg.collective = false;
        const double orig_bw = apps::run_btio(cfg).io_bandwidth_mb_s();
        cfg.collective = true;
        const double opt_bw = apps::run_btio(cfg).io_bandwidth_mb_s();
        return Point{orig_bw, opt_bw};
      });

  double orig_min = 1e30, orig_max = 0, opt_min = 1e30, opt_max = 0;
  for (std::size_t ci = 0; ci < classes.size(); ++ci) {
    expt::Table table({"procs", "original MB/s", "optimized MB/s"});
    for (std::size_t pi = 0; pi < procs.size(); ++pi) {
      const Point& pt = points[ci * procs.size() + pi];
      orig_min = std::min(orig_min, pt.orig_bw);
      orig_max = std::max(orig_max, pt.orig_bw);
      opt_min = std::min(opt_min, pt.opt_bw);
      opt_max = std::max(opt_max, pt.opt_bw);
      table.add_row(
          {expt::fmt_u64(static_cast<unsigned long long>(procs[pi])),
           expt::fmt_mb(pt.orig_bw), expt::fmt_mb(pt.opt_bw)});
    }
    ctx.printf("Figure 7 (Class %c): BTIO I/O bandwidth on the SP-2\n%s\n",
               classes[ci], ctx.table(table).c_str());
  }
  ctx.printf("original: %.2f-%.2f MB/s (paper 0.97-1.5);  optimized: "
             "%.2f-%.2f MB/s (paper 6.6-31.4)\n",
             orig_min, orig_max, opt_min, opt_max);

  ctx.expect(opt_min > 3.0 * orig_max,
             "optimized bandwidth clearly separated from original");
  ctx.expect(orig_max < 6.0, "original bandwidth is single-digit MB/s");
  ctx.expect(opt_max > 10.0, "optimized bandwidth reaches tens of MB/s");
}

const scenario::Registration reg{{
    .name = "fig7",
    .title = "Figure 7: BTIO I/O bandwidth, original vs two-phase",
    .description =
        "Measures BTIO I/O bandwidth for Class A and B across processor "
        "counts. --check asserts the order-of-magnitude bandwidth gap "
        "between the original (~1 MB/s band) and two-phase collective "
        "(tens of MB/s) versions.",
    .default_scale = 0.25,
    .grid = {{"class", {"A", "B"}}, {"procs", {"4", "16", "36", "64"}}},
    .run = run,
}};

}  // namespace
