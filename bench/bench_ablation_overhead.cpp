// Scenario "ablation_overhead" — per-call software overhead as the
// dominant factor in unoptimized I/O (DESIGN.md §5.4).
//
// Replays BTIO's unoptimized access pattern (4096 seek+write pairs of
// 2560 B per dump) against the SP-2 model while sweeping the client
// syscall and I/O-node daemon costs.  The simulated I/O time should track
// the per-call overhead almost linearly — the paper's core software
// observation — while a single large write barely notices.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "mprt/comm.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

struct Result {
  double scattered;  // 4096 x 2560 B seek+write
  double bulk;       // one 10.5 MB write
};

Result run_pattern(double client_ms, double server_ms) {
  simkit::Engine eng;
  hw::MachineConfig cfg = hw::MachineConfig::sp2(16);
  cfg.io.client_syscall_ms = client_ms;
  cfg.io.server_overhead_ms = server_ms;
  hw::Machine machine(eng, cfg);
  pfs::StripedFs fs(machine);
  const pfs::FileId scattered_f = fs.create("scattered");
  const pfs::FileId bulk_f = fs.create("bulk");

  Result res{};
  mprt::Cluster::execute(machine, 16, [&](mprt::Comm& c)
                                          -> simkit::Task<void> {
    // 256 pencils per rank (4096 total), BTIO Class A geometry.
    const simkit::Time t0 = c.engine().now();
    for (int i = 0; i < 256; ++i) {
      const auto off = static_cast<std::uint64_t>(c.rank() * 256 + i);
      co_await fs.pwrite(c.node(), scattered_f, off * 2560 * 16, 2560);
    }
    const simkit::Time t1 = c.engine().now();
    co_await fs.pwrite(c.node(), bulk_f,
                       static_cast<std::uint64_t>(c.rank()) * 655360,
                       655360);
    if (c.rank() == 0) {
      res.scattered = t1 - t0;
      res.bulk = c.engine().now() - t1;
    }
  });
  return res;
}

void run(scenario::Context& ctx) {
  // The scattered pattern has a disk-seek floor (~6.5 s here); per-call
  // software costs surface once they cross it — exactly the regime split
  // between Figure 2's small-P and large-P behavior.
  const double clients[] = {0.1, 1.0};
  const double servers[] = {0.2, 4.0, 16.0};
  const std::vector<Result> results = ctx.map<Result>(
      std::size(clients) * std::size(servers), [&](std::size_t i) {
        return run_pattern(clients[i / std::size(servers)],
                           servers[i % std::size(servers)]);
      });

  expt::Table table({"client ms", "server ms", "scattered 4096x2.5KB (s)",
                     "bulk 16x640KB (s)", "ratio"});
  std::vector<double> scattered;
  double bulk_spread_min = 1e30, bulk_spread_max = 0;
  for (std::size_t ci = 0; ci < std::size(clients); ++ci) {
    for (std::size_t si = 0; si < std::size(servers); ++si) {
      const Result& r = results[ci * std::size(servers) + si];
      scattered.push_back(r.scattered);
      bulk_spread_min = std::min(bulk_spread_min, r.bulk);
      bulk_spread_max = std::max(bulk_spread_max, r.bulk);
      table.add_row({expt::fmt("%.2f", clients[ci]),
                     expt::fmt("%.2f", servers[si]),
                     expt::fmt("%.2f", r.scattered),
                     expt::fmt("%.3f", r.bulk),
                     expt::fmt("%.0fx", r.scattered / r.bulk)});
    }
  }
  ctx.printf("Ablation: per-call overhead vs I/O time (BTIO pattern)\n%s\n",
             ctx.table(table).c_str());

  const double scattered_growth = scattered.back() / scattered.front();
  const double bulk_growth = bulk_spread_max / bulk_spread_min;
  ctx.expect(scattered_growth > 1.8,
             "past the disk floor, scattered I/O tracks per-call cost");
  ctx.expect(scattered_growth > 2.0 * bulk_growth || bulk_spread_max < 0.5,
             "bulk I/O is far less sensitive to per-call cost");
}

const scenario::Registration reg{{
    .name = "ablation_overhead",
    .title = "Ablation: per-call software overhead vs I/O time",
    .description =
        "Replays BTIO's many-small-writes pattern while sweeping client "
        "syscall and I/O-node daemon costs. --check asserts small-op I/O "
        "time tracks per-call overhead almost linearly while one large "
        "write barely notices.",
    .default_scale = 1.0,
    .grid = {{"client_ms", {"0.1", "1.0"}},
             {"server_ms", {"0.2", "4.0", "16.0"}}},
    .run = run,
}};

}  // namespace
