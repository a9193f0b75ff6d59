// Scenario "micro_twophase" — micro-benchmarks (host-side cost) for
// two-phase collective I/O: how the simulator itself scales with rank
// count and piece count.
#include <benchmark/benchmark.h>

#include "hw/machine.hpp"
#include "micro_common.hpp"
#include "mprt/comm.hpp"
#include "pario/twophase.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace {

void BM_TwoPhaseWrite(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int pieces = static_cast<int>(state.range(1));
  for (auto _ : state) {
    simkit::Engine eng;
    hw::Machine machine(
        eng, hw::MachineConfig::paragon_small(
                 static_cast<std::size_t>(ranks), 2));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("bench");
    mprt::Cluster::execute(machine, ranks, [&](mprt::Comm& c)
                                               -> simkit::Task<void> {
      std::vector<pario::Extent> mine;
      for (int i = 0; i < pieces; ++i) {
        const auto rec = static_cast<std::uint64_t>(
            c.rank() + i * c.size());
        mine.push_back(pario::Extent{rec * 4096, 4096,
                                     static_cast<std::uint64_t>(i) * 4096});
      }
      co_await pario::TwoPhase::write(c, fs, f, std::move(mine));
    });
  }
  state.SetItemsProcessed(state.iterations() * ranks * pieces);
}
BENCHMARK(BM_TwoPhaseWrite)
    ->Args({4, 16})
    ->Args({4, 256})
    ->Args({16, 64})
    ->Args({32, 32});

void BM_TwoPhaseDataBacked(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  constexpr int kPieces = 32;
  for (auto _ : state) {
    simkit::Engine eng;
    hw::Machine machine(
        eng, hw::MachineConfig::paragon_small(
                 static_cast<std::size_t>(ranks), 2));
    pfs::StripedFs fs(machine);
    const pfs::FileId f = fs.create("bench", /*backed=*/true);
    mprt::Cluster::execute(machine, ranks, [&](mprt::Comm& c)
                                               -> simkit::Task<void> {
      std::vector<pario::Extent> mine;
      std::vector<std::byte> data(kPieces * 4096,
                                  static_cast<std::byte>(c.rank()));
      for (int i = 0; i < kPieces; ++i) {
        const auto rec = static_cast<std::uint64_t>(
            c.rank() + i * c.size());
        mine.push_back(pario::Extent{rec * 4096, 4096,
                                     static_cast<std::uint64_t>(i) * 4096});
      }
      co_await pario::TwoPhase::write(c, fs, f, std::move(mine), data);
    });
  }
  state.SetBytesProcessed(state.iterations() * ranks * kPieces * 4096);
}
BENCHMARK(BM_TwoPhaseDataBacked)->Arg(4)->Arg(16);

void run(scenario::Context& ctx) {
  bench::run_micro(ctx, "^BM_(TwoPhaseWrite|TwoPhaseDataBacked)/");
}

const scenario::Registration reg{{
    .name = "micro_twophase",
    .title = "Micro: two-phase collective I/O host-side cost",
    .description =
        "google-benchmark micros for two-phase collective I/O: how the "
        "simulator's own cost scales with rank and piece count. "
        "Wall-clock output, so the determinism gates skip it.",
    .default_scale = 0.1,
    .grid = {},
    .wallclock = true,
    .run = run,
}};

}  // namespace
