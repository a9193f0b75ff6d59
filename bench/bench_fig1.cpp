// Scenario "fig1" — reproduces Figure 1: SCF 1.1 on SMALL/MEDIUM/LARGE
// inputs under the incremental optimization configurations I-VII.
//
// Each configuration is the paper's five-tuple (V, P, M, Su, Sf):
// version (O=original Fortran, P=PASSION, F=PASSION+prefetch), processor
// count, application memory (KB), stripe unit (KB), stripe factor (# I/O
// nodes).  Paper finding: for small processor counts the software factors
// (V, M) move execution and I/O time far more than the system factors
// (Su, Sf).
#include <cmath>
#include <cstdio>

#include "apps/scf.hpp"
#include "exp/table.hpp"
#include "scenario/scenario.hpp"

namespace {

struct Config {
  const char* name;
  apps::ScfVersion v;
  int procs;
  std::uint64_t mem_kb;
  std::uint64_t su_kb;
  std::size_t sf;
};

// Tuple V is illegible in the archived scan; (F,32,256,64,16) interpolates
// between IV and VI/VII on the stripe-factor axis (noted in
// EXPERIMENTS.md).
constexpr Config kConfigs[] = {
    {"I   (O,4,64,64,12)", apps::ScfVersion::kOriginal, 4, 64, 64, 12},
    {"II  (P,4,64,64,12)", apps::ScfVersion::kPassion, 4, 64, 64, 12},
    {"III (F,4,64,64,12)", apps::ScfVersion::kPassionPrefetch, 4, 64, 64, 12},
    {"IV  (F,32,256,64,12)", apps::ScfVersion::kPassionPrefetch, 32, 256, 64,
     12},
    {"V   (F,32,256,64,16)", apps::ScfVersion::kPassionPrefetch, 32, 256, 64,
     16},
    {"VI  (F,32,256,128,12)", apps::ScfVersion::kPassionPrefetch, 32, 256,
     128, 12},
    {"VII (F,32,256,128,16)", apps::ScfVersion::kPassionPrefetch, 32, 256,
     128, 16},
};

struct Input {
  const char* name;
  int n_basis;
};
constexpr Input kInputs[] = {{"SMALL", 108}, {"MEDIUM", 140}, {"LARGE", 285}};

constexpr std::size_t kNumConfigs = std::size(kConfigs);

void run(scenario::Context& ctx) {
  const expt::Options& opt = ctx.opt();

  struct Point {
    double exec_time = 0.0;
    double io_wall = 0.0;
  };
  const std::vector<Point> points =
      ctx.map<Point>(std::size(kInputs) * kNumConfigs, [&](std::size_t i) {
        const Input& input = kInputs[i / kNumConfigs];
        const Config& c = kConfigs[i % kNumConfigs];
        apps::ScfConfig cfg;
        cfg.version = c.v;
        cfg.nprocs = c.procs;
        cfg.io_nodes = c.sf;
        cfg.memory_kb = c.mem_kb;
        cfg.stripe_unit_kb = c.su_kb;
        cfg.n_basis = input.n_basis;
        cfg.iterations = 15;
        cfg.scale = opt.scale;
        const apps::RunResult r = apps::run_scf11(cfg);
        return Point{r.exec_time, r.io_time / c.procs};
      });

  for (std::size_t ii = 0; ii < std::size(kInputs); ++ii) {
    const Input& input = kInputs[ii];
    expt::Table table({"config (V,P,M,Su,Sf)", "exec time (s)",
                       "I/O time (s)", "I/O %"});
    double exec_I = 0, exec_III = 0, exec_IV = 0, exec_VII = 0;
    for (std::size_t ci = 0; ci < kNumConfigs; ++ci) {
      const Config& c = kConfigs[ci];
      const Point& p = points[ii * kNumConfigs + ci];
      table.add_row({c.name, expt::fmt_s(p.exec_time),
                     expt::fmt_s(p.io_wall),
                     expt::fmt("%.0f%%", 100.0 * p.io_wall / p.exec_time)});
      if (c.name[0] == 'I' && c.name[1] == ' ') exec_I = p.exec_time;
      if (c.name[0] == 'I' && c.name[2] == 'I') exec_III = p.exec_time;
      if (c.name[0] == 'I' && c.name[1] == 'V') exec_IV = p.exec_time;
      if (c.name[0] == 'V' && c.name[1] == 'I' && c.name[2] == 'I') {
        exec_VII = p.exec_time;
      }
    }
    ctx.printf("Figure 1 (%s, N=%d): impact of optimizations\n%s\n",
               input.name, input.n_basis, ctx.table(table).c_str());
    ctx.expect(exec_III < exec_I,
               std::string(input.name) +
                   ": software path I->III improves execution");
    // Application-related factors (interface, prefetch) buy more than
    // the system-related Su/Sf changes within the F configurations.
    ctx.expect((exec_I - exec_III) > 2.0 * std::abs(exec_IV - exec_VII),
               std::string(input.name) +
                   ": software factors dominate system factors");
  }
}

const scenario::Registration reg{{
    .name = "fig1",
    .title = "Figure 1: SCF 1.1 optimization tuples I-VII on three inputs",
    .description =
        "Sweeps the paper's (V, P, M, Su, Sf) optimization tuples over "
        "SMALL/MEDIUM/LARGE inputs. --check asserts that at small "
        "processor counts the software factors (version, memory) move "
        "execution time far more than the system factors.",
    .default_scale = 0.5,
    .grid = {{"input", {"SMALL", "MEDIUM", "LARGE"}},
             {"config", {"I", "II", "III", "IV", "V", "VI", "VII"}}},
    .run = run,
}};

}  // namespace
