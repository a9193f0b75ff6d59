// Shared glue for the google-benchmark micro scenarios: run the
// statically registered BM_* benchmarks whose names match a filter and
// write the tabular console report into the scenario's output stream.
//
// Micro scenarios measure HOST time, so they are registered with
// wallclock=true — the runner executes them serially (the benchmark
// library keeps global state) and exempts them from the byte-identity
// gates (--repeat / --golden).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <mutex>
#include <string>

#include "scenario/scenario.hpp"

namespace bench {

/// Run the registered benchmarks matching `filter` (an anchored regex)
/// into ctx's output.  The benchmark time budget shrinks with --scale so
/// `--all` suites stay fast; --full restores the library default.
inline void run_micro(scenario::Context& ctx, const char* filter) {
  static std::once_flag init_once;
  std::call_once(init_once, [] {
    // Initialize() wants argv; give it a fixed one (scenario options are
    // parsed by expt::Options, not by the benchmark library).
    static char arg0[] = "iosim";
    static char arg1[] = "--benchmark_color=false";
    static char* argv[] = {arg0, arg1, nullptr};
    int argc = 2;
    benchmark::Initialize(&argc, argv);
  });
  char min_time[64];
  std::snprintf(min_time, sizeof min_time, "--benchmark_min_time=%.3f",
                ctx.opt().scale >= 1.0 ? 0.5 : 0.05);
  {
    // Per-run flag: re-parse only the min-time knob.
    static char arg0[] = "iosim";
    char* argv[] = {arg0, min_time, nullptr};
    int argc = 2;
    benchmark::Initialize(&argc, argv);
  }
  benchmark::ConsoleReporter rep(benchmark::ConsoleReporter::OO_Tabular);
  rep.SetOutputStream(&ctx.stream());
  rep.SetErrorStream(&ctx.stream());
  const std::size_t n = benchmark::RunSpecifiedBenchmarks(&rep, filter);
  ctx.expect(n > 0, std::string("benchmarks matched filter ") + filter);
}

}  // namespace bench
