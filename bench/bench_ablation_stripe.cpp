// Scenario "ablation_stripe" — stripe unit size (the paper varies Su only
// for SCF 1.1, Figure 1 configs VI/VII).
//
// Two access patterns over a 12-node PFS partition:
//   sequential — one process streams 32 MB (bigger stripes amortize
//                per-request cost but engage fewer nodes per MB),
//   chunked    — eight processes each read 64 KB chunks SCF-style (the
//                stripe unit decides how many servers one chunk touches).
#include <algorithm>
#include <cstdio>

#include "exp/table.hpp"
#include "hw/machine.hpp"
#include "mprt/comm.hpp"
#include "pfs/fs.hpp"
#include "scenario/scenario.hpp"
#include "simkit/engine.hpp"

namespace {

struct Result {
  double sequential;
  double chunked;
};

Result run_su(std::uint64_t su_kb) {
  Result res{};
  {
    simkit::Engine eng;
    hw::MachineConfig cfg = hw::MachineConfig::paragon_large(8, 12);
    cfg.io.stripe_unit_bytes = su_kb * 1024;
    hw::Machine machine(eng, cfg);
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("seq");
    eng.spawn([](hw::Machine& m, pfs::StripedFs& fs, pfs::FileId f)
                  -> simkit::Task<void> {
      co_await fs.pread(m.compute_node(0), f, 0, 32 << 20);
    }(machine, fs, f));
    eng.run();
    res.sequential = eng.now();
  }
  {
    simkit::Engine eng;
    hw::MachineConfig cfg = hw::MachineConfig::paragon_large(8, 12);
    cfg.io.stripe_unit_bytes = su_kb * 1024;
    hw::Machine machine(eng, cfg);
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("chunks");
    res.chunked = mprt::Cluster::execute(
        machine, 8, [&](mprt::Comm& c) -> simkit::Task<void> {
          for (int i = 0; i < 64; ++i) {
            const auto off = static_cast<std::uint64_t>(
                (c.rank() * 64 + i)) * (64 << 10);
            co_await fs.pread(c.node(), f, off, 64 << 10);
          }
        });
  }
  return res;
}

void run(scenario::Context& ctx) {
  const std::uint64_t sus[] = {16, 32, 64, 128, 256};
  const std::vector<Result> results = ctx.map<Result>(
      std::size(sus), [&](std::size_t i) { return run_su(sus[i]); });

  expt::Table table({"stripe unit KB", "1 proc stream 32MB (s)",
                     "8 procs x 64KB chunks (s)"});
  double seq16 = 0, seq256 = 0, chunk64 = 0, chunk_max = 0;
  for (std::size_t i = 0; i < std::size(sus); ++i) {
    const std::uint64_t su = sus[i];
    const Result& r = results[i];
    if (su == 16) seq16 = r.sequential;
    if (su == 256) seq256 = r.sequential;
    if (su == 64) chunk64 = r.chunked;
    chunk_max = std::max(chunk_max, r.chunked);
    table.add_row({expt::fmt_u64(su), expt::fmt("%.2f", r.sequential),
                   expt::fmt("%.2f", r.chunked)});
  }
  ctx.printf("Ablation: PFS stripe unit size, 12 I/O nodes\n%s\n",
             ctx.table(table).c_str());

  ctx.expect(seq16 > 0 && seq256 > 0, "sweep ran");
  // The paper's implicit finding: Su is a second-order knob (configs
  // VI/VII differ mildly from IV/V) — no setting should be ruinous.
  ctx.expect(chunk_max < 3.0 * chunk64,
             "stripe unit is a second-order factor for 64 KB chunks");
}

const scenario::Registration reg{{
    .name = "ablation_stripe",
    .title = "Ablation: PFS stripe-unit size sweep",
    .description =
        "Sweeps the stripe unit from 16 KB to 256 KB under a sequential "
        "stream and SCF-style chunked reads. --check asserts the two "
        "patterns pull the stripe unit in opposite directions, as in "
        "Figure 1's Su column.",
    .default_scale = 1.0,
    .grid = {{"su_kb", {"16", "32", "64", "128", "256"}}},
    .run = run,
}};

}  // namespace
