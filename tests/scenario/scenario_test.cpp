// Tests for the scenario layer: registration rules, grid expansion
// order, the shared run epilogue, and the parallel-equals-serial
// determinism contract.
#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "exp/table.hpp"
#include "metrics/metrics.hpp"
#include "simkit/rng.hpp"

namespace {

scenario::Spec make_spec(const std::string& name) {
  scenario::Spec s;
  s.name = name;
  s.title = std::string("title of ") + name;
  s.run = [](scenario::Context&) {};
  return s;
}

TEST(ScenarioRegistry, RejectsDuplicateName) {
  scenario::Registry reg;
  reg.add(make_spec("a"));
  EXPECT_THROW(reg.add(make_spec("a")), std::logic_error);
}

TEST(ScenarioRegistry, RejectsEmptyNameAndMissingRun) {
  scenario::Registry reg;
  EXPECT_THROW(reg.add(make_spec("")), std::logic_error);
  scenario::Spec no_run;
  no_run.name = "x";
  EXPECT_THROW(reg.add(std::move(no_run)), std::logic_error);
}

TEST(ScenarioRegistry, AllIsSortedByName) {
  scenario::Registry reg;
  reg.add(make_spec("zeta"));
  reg.add(make_spec("alpha"));
  reg.add(make_spec("mid"));
  const auto all = reg.all();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0]->name, "alpha");
  EXPECT_EQ(all[1]->name, "mid");
  EXPECT_EQ(all[2]->name, "zeta");
  EXPECT_EQ(reg.find("mid"), all[1]);
  EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(ScenarioGrid, EmptyGridIsOnePoint) {
  const std::vector<scenario::Axis> grid;
  EXPECT_EQ(scenario::grid_size(grid), 1u);
}

TEST(ScenarioGlobalRegistry, HasAllThirtyOneScenarios) {
  const char* names[] = {
      "table2_3", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
      "figure2_xl", "table4", "table5", "ablation_overhead", "ablation_ionode",
      "ablation_network", "ablation_iomode", "ablation_scan",
      "ablation_stripe", "ablation_aggregators", "fault_ckpt",
      "fault_correlated", "platform_ckpt_interference", "platform_queueing",
      "platform_server_cache", "platform_server_faults",
      "server_cache_policy", "server_crash_durability", "server_readahead",
      "engine_bench"};
  for (const char* n : names) {
    EXPECT_NE(scenario::Registry::global().find(n), nullptr) << n;
  }
  EXPECT_EQ(scenario::Registry::global().all().size(), std::size(names));
}

TEST(ScenarioGlobalRegistry, EveryScenarioHasADescription) {
  for (const scenario::Spec* s : scenario::Registry::global().all()) {
    EXPECT_FALSE(s->description.empty()) << s->name;
  }
}

// A stochastic-looking body: every point draws from its own seeded RNG
// stream and the body renders results in point order.  Any cross-thread
// leakage (shared RNG, out-of-order fold, interleaved output) breaks the
// byte-equality below.
std::string run_body(int jobs) {
  expt::Options opt(1.0);
  scenario::JobBudget budget(jobs);
  scenario::Context ctx(opt, &budget);
  const std::vector<double> vals =
      ctx.map<double>(64, [](std::size_t i) {
        simkit::Rng rng(0xC0FFEE + i);
        double acc = 0.0;
        for (int k = 0; k < 1000; ++k) acc += rng.uniform();
        return acc;
      });
  for (std::size_t i = 0; i < vals.size(); ++i) {
    ctx.printf("%zu %.12f\n", i, vals[i]);
  }
  return ctx.output();
}

TEST(ScenarioParallel, ParallelEqualsSerial) {
  const std::string serial = run_body(1);
  const std::string parallel = run_body(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// The registered fault_correlated scenario drives real engines with
// injected faults from three points; its rendered output must also be
// byte-identical across -j.
std::string run_registered(int jobs) {
  const scenario::Spec* s =
      scenario::Registry::global().find("fault_correlated");
  EXPECT_NE(s, nullptr);
  expt::Options opt(0.1);
  scenario::JobBudget budget(jobs);
  scenario::Context ctx(opt, &budget);
  ctx.run(*s);
  return ctx.output();
}

TEST(ScenarioParallel, RegisteredScenarioParallelEqualsSerial) {
  const std::string serial = run_registered(1);
  const std::string parallel = run_registered(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// The platform scenario is the widest determinism surface in the repo:
// each grid point drives a 160-job multi-tenant simulation (shared PFS,
// coroutine job bodies, node allocator).  Its rendered sweep must also
// fold back byte-identically under -j.
std::string run_platform(int jobs) {
  const scenario::Spec* s =
      scenario::Registry::global().find("platform_queueing");
  EXPECT_NE(s, nullptr);
  expt::Options opt(s->default_scale);
  scenario::JobBudget budget(jobs);
  scenario::Context ctx(opt, &budget);
  ctx.run(*s);
  return ctx.output();
}

TEST(ScenarioParallel, PlatformScenarioParallelEqualsSerial) {
  const std::string serial = run_platform(1);
  const std::string parallel = run_platform(8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

// The shared epilogue: shape checks print and count only under --check,
// tables follow --csv, and --metrics appends the registry tables after
// everything the body printed.
TEST(ScenarioContext, ExpectIsSilentWithoutCheck) {
  const expt::Options opt(1.0);
  scenario::Context ctx(opt, nullptr);
  ctx.expect(false, "a failing shape");
  EXPECT_EQ(ctx.output(), "");
  EXPECT_TRUE(ctx.ok());
}

TEST(ScenarioContext, ExpectPrintsAndFoldsUnderCheck) {
  expt::Options opt(1.0);
  opt.check = true;
  scenario::Context ctx(opt, nullptr);
  ctx.expect(true, "a passing shape");
  EXPECT_TRUE(ctx.ok());
  ctx.expect(false, "a failing shape");
  EXPECT_EQ(ctx.output(),
            "  [PASS] a passing shape\n  [FAIL] a failing shape\n");
  EXPECT_FALSE(ctx.ok());
}

TEST(ScenarioContext, TableFollowsCsv) {
  expt::Table t({"a", "b"});
  t.add_row({"1", "2"});
  const expt::Options ascii_opt(1.0);
  scenario::Context ascii(ascii_opt, nullptr);
  EXPECT_EQ(ascii.table(t), t.str());
  expt::Options csv_opt(1.0);
  csv_opt.csv = true;
  scenario::Context csv(csv_opt, nullptr);
  EXPECT_EQ(csv.table(t), t.csv());
}

// A body that counts its one point in the ambient registry, then prints
// a line and states a check.
scenario::Spec counting_spec() {
  scenario::Spec s = make_spec("counting");
  s.run = [](scenario::Context& ctx) {
    ctx.for_each_point(1, [](std::size_t) {
      if (metrics::Registry* r = metrics::current()) {
        r->counter("test.points").inc();
      }
    });
    ctx.printf("body\n");
    ctx.expect(true, "counted");
  };
  return s;
}

TEST(ScenarioContext, RunAppendsMetricsTablesOnlyUnderMetrics) {
  const scenario::Spec spec = counting_spec();
  expt::Options plain(1.0);
  plain.check = true;
  scenario::Context quiet(plain, nullptr);
  quiet.run(spec);
  EXPECT_EQ(quiet.output(), "body\n  [PASS] counted\n");

  expt::Options with_metrics = plain;
  with_metrics.metrics = true;
  scenario::Context loud(with_metrics, nullptr);
  loud.run(spec);
  const std::string out = loud.output();
  EXPECT_EQ(out.rfind("body\n  [PASS] counted\n| counter", 0), 0u) << out;
  EXPECT_NE(out.find("| test.points | 1 "), std::string::npos) << out;
}

TEST(ScenarioJobBudget, AcquireNeverOversubscribes) {
  scenario::JobBudget b(4);  // 3 worker tokens beyond the caller
  EXPECT_EQ(b.acquire(2), 2);
  EXPECT_EQ(b.acquire(5), 1);
  EXPECT_EQ(b.acquire(1), 0);
  b.release(3);
  EXPECT_EQ(b.acquire(8), 3);
  b.release(3);
}

}  // namespace
