// Scenario "micro_pfs" — micro-benchmarks for the striped file-system
// path: host-side cost of simulated reads/writes, scaling with piece
// count and I/O nodes.
#include <benchmark/benchmark.h>

#include "hw/machine.hpp"
#include "micro_common.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace {

void BM_StripedRead(benchmark::State& state) {
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("bench");
    eng.spawn([](simkit::Engine&, hw::Machine& m, pfs::StripedFs& fs,
                 pfs::FileId f, std::uint64_t n) -> simkit::Task<void> {
      co_await fs.pread(m.compute_node(0), f, 0, n);
    }(eng, machine, fs, f, bytes));
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_StripedRead)->Arg(64 << 10)->Arg(1 << 20)->Arg(16 << 20);

void BM_SmallScatteredWrites(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::sp2(4));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("bench");
    eng.spawn([](hw::Machine& m, pfs::StripedFs& fs, pfs::FileId f,
                 int n) -> simkit::Task<void> {
      for (int i = 0; i < n; ++i) {
        co_await fs.pwrite(m.compute_node(0), f,
                           static_cast<std::uint64_t>(i) * 8192, 2048);
      }
    }(machine, fs, f, count));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_SmallScatteredWrites)->Arg(256)->Arg(4096);

void BM_ConcurrentClients(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  for (auto _ : state) {
    simkit::Engine eng;
    hw::Machine machine(
        eng, hw::MachineConfig::paragon_large(
                 static_cast<std::size_t>(clients), 12));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("bench");
    for (int c = 0; c < clients; ++c) {
      eng.spawn([](hw::Machine& m, pfs::StripedFs& fs, pfs::FileId f,
                   int c) -> simkit::Task<void> {
        co_await fs.pread(m.compute_node(static_cast<std::size_t>(c)), f,
                          static_cast<std::uint64_t>(c) << 24, 1 << 20);
      }(machine, fs, f, c));
    }
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * clients);
}
BENCHMARK(BM_ConcurrentClients)->Arg(4)->Arg(64);

void run(scenario::Context& ctx) {
  bench::run_micro(
      ctx, "^BM_(StripedRead|SmallScatteredWrites|ConcurrentClients)/");
}

const scenario::Registration reg{{
    .name = "micro_pfs",
    .title = "Micro: striped file-system host-side cost",
    .description =
        "google-benchmark micros for the striped file-system path: "
        "host-side cost of simulated reads/writes as piece count and I/O "
        "nodes scale. Wall-clock output, so the determinism gates skip "
        "it.",
    .default_scale = 0.1,
    .grid = {},
    .wallclock = true,
    .run = run,
}};

}  // namespace
