// Scenario "table2_3" — reproduces Tables 2 and 3: Pablo-style I/O
// summaries of SCF 1.1 (LARGE input, 4 processors, 12 I/O nodes) for the
// original Fortran-I/O version and the PASSION-interface version.
//
// Paper reference points: 566,315 reads / 37 GB read volume, reads 95.6%
// of I/O time, I/O 54.1% of execution (original); PASSION cuts total I/O
// time 63,087 s -> 35,444 s (~1.78x) while adding 604k cheap seeks.
#include <cstdio>

#include "apps/scf.hpp"
#include "exp/report.hpp"
#include "scenario/scenario.hpp"

namespace {

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  const apps::ScfVersion versions[] = {apps::ScfVersion::kOriginal,
                                       apps::ScfVersion::kPassion};
  const std::vector<apps::RunResult> results =
      ctx.map<apps::RunResult>(2, [&](std::size_t i) {
        apps::ScfConfig cfg;
        cfg.version = versions[i];
        cfg.nprocs = 4;
        cfg.io_nodes = 12;
        cfg.n_basis = 285;  // LARGE
        cfg.iterations = 15;
        cfg.scale = opt.scale;
        return apps::run_scf11(cfg);
      });
  const apps::RunResult& orig = results[0];
  const apps::RunResult& pass = results[1];

  const char* titles[] = {
      "Table 2: SCF 1.1 original (Fortran I/O), LARGE, 4 procs",
      "Table 3: SCF 1.1 PASSION version, LARGE, 4 procs"};
  for (std::size_t i = 0; i < results.size(); ++i) {
    const apps::RunResult& r = results[i];
    // The paper's "% of exec time" is relative to summed per-process time.
    const expt::Table t = expt::io_summary_table(r.trace, r.exec_time * 4);
    ctx.printf("%s [total I/O %.1f h]\n%s\n", titles[i], r.io_time / 3600.0,
               ctx.table(t).c_str());
  }
  ctx.printf("I/O-time ratio original/PASSION: %.2f (paper: 1.78)\n\n",
             orig.io_time / pass.io_time);
  ctx.printf("Latency distribution by operation (original):\n%s\n",
             ctx.table(expt::latency_table(orig.trace)).c_str());

  const auto& oread = orig.trace.summary(pfs::OpKind::kRead);
  const auto& pread = pass.trace.summary(pfs::OpKind::kRead);
  const auto& pseek = pass.trace.summary(pfs::OpKind::kSeek);
  const auto& oseek = orig.trace.summary(pfs::OpKind::kSeek);
  ctx.expect(oread.time() > 0.90 * orig.io_time,
             "reads dominate original I/O time (paper: 95.6%)");
  ctx.expect(oread.bytes == pread.bytes, "both versions move equal data");
  ctx.expect(orig.io_time / pass.io_time > 1.3 &&
                 orig.io_time / pass.io_time < 2.4,
             "PASSION interface speedup in the paper's band (~1.78x)");
  ctx.expect(pseek.count() > 100 * oseek.count(),
             "PASSION version seeks before every read (604k vs 994)");
  const double io_frac = orig.io_time / (orig.exec_time * 4);
  ctx.expect(io_frac > 0.40 && io_frac < 0.75,
             "I/O is roughly half of execution (paper: 54.1%)");
}

const scenario::Registration reg{{
    .name = "table2_3",
    .title = "Tables 2-3: Pablo-style I/O summaries of SCF 1.1",
    .description =
        "Counts operations, bytes, and I/O time for SCF 1.1 LARGE under "
        "the original Fortran I/O and the PASSION rewrite. --check "
        "asserts the paper's headline reductions (reads dominate, ~1.8x "
        "less I/O time after the rewrite).",
    .default_scale = 1.0,  // full scale runs in ~1 s
    .grid = {{"version", {"original", "passion"}}},
    .run = run,
}};

}  // namespace
