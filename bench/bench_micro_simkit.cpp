// Scenario "micro_simkit" — micro-benchmarks for the discrete-event
// kernel (google-benchmark): event throughput, spawn/join cost, resource
// contention, channel ops.
#include <benchmark/benchmark.h>

#include "micro_common.hpp"
#include "simkit/simkit.hpp"

namespace {

using simkit::Engine;
using simkit::Task;

void BM_DelayChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    eng.spawn([](Engine& e, int n) -> Task<void> {
      for (int i = 0; i < n; ++i) co_await e.delay(1.0);
    }(eng, n));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DelayChain)->Arg(1000)->Arg(100000);

void BM_SpawnJoin(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    eng.spawn([](Engine& e, int n) -> Task<void> {
      for (int i = 0; i < n; ++i) {
        auto h = e.spawn([](Engine& e2) -> Task<void> {
          co_await e2.delay(0.5);
        }(e));
        co_await h.join();
      }
    }(eng, n));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpawnJoin)->Arg(1000)->Arg(10000);

void BM_ResourceContention(benchmark::State& state) {
  const int waiters = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    simkit::Resource r(eng, 2);
    for (int i = 0; i < waiters; ++i) {
      eng.spawn([](Engine& e, simkit::Resource& r) -> Task<void> {
        for (int k = 0; k < 10; ++k) co_await r.use_for(0.1);
        (void)e;
      }(eng, r));
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * waiters * 10);
}
BENCHMARK(BM_ResourceContention)->Arg(16)->Arg(256);

void BM_ChannelPingPong(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Engine eng;
    simkit::Channel<int> a(eng), b(eng);
    eng.spawn([](simkit::Channel<int>& a, simkit::Channel<int>& b,
                 int n) -> Task<void> {
      for (int i = 0; i < n; ++i) {
        a.send(i);
        (void)co_await b.recv();
      }
    }(a, b, n));
    eng.spawn([](simkit::Channel<int>& a, simkit::Channel<int>& b,
                 int n) -> Task<void> {
      for (int i = 0; i < n; ++i) {
        int v = co_await a.recv();
        b.send(v + 1);
      }
    }(a, b, n));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_ChannelPingPong)->Arg(1000)->Arg(100000);

void run(scenario::Context& ctx) {
  bench::run_micro(
      ctx,
      "^BM_(DelayChain|SpawnJoin|ResourceContention|ChannelPingPong)/");
}

const scenario::Registration reg{{
    .name = "micro_simkit",
    .title = "Micro: discrete-event kernel host-side throughput",
    .description =
        "google-benchmark micros for the simulation kernel itself: event "
        "throughput, spawn/join cost, resource contention, channel ops. "
        "Wall-clock output, so the determinism gates skip it.",
    .default_scale = 0.1,
    .grid = {},
    .wallclock = true,
    .run = run,
}};

}  // namespace
