// Tests for the prefetcher: overlap, accounting, data integrity.
#include "pario/prefetch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hw/machine.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"
#include "trace/tracer.hpp"

namespace pario {
namespace {

struct Rig {
  simkit::Engine eng;
  hw::Machine machine;
  pfs::StripedFs fs;
  Rig() : machine(eng, hw::MachineConfig::paragon_large(4, 12)), fs(machine) {}
};

// Consume `chunks` chunks, spending `compute_s` simulated seconds on each,
// returning (elapsed, wait_time, copy_time).
struct RunResult {
  double elapsed;
  double wait;
  double copy;
};

RunResult run_prefetch(double compute_s, std::uint64_t chunks,
                       std::uint64_t chunk_bytes) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("p");
  RunResult res{};
  rig.eng.spawn([](Rig& r, pfs::FileId f, double compute, std::uint64_t n,
                   std::uint64_t cb, RunResult& out) -> simkit::Task<void> {
    pfs::FileHandle io = co_await r.fs.open(
        r.machine.compute_node(0), f, nullptr, pfs::InterfaceParams::passion());
    const simkit::Time t0 = r.eng.now();
    Prefetcher pf(io, 0, cb, n * cb);
    while (!pf.done()) {
      (void)co_await pf.next();
      co_await r.eng.delay(compute);
    }
    out.elapsed = r.eng.now() - t0;
    out.wait = pf.wait_time();
    out.copy = pf.copy_time();
  }(rig, f, compute_s, chunks, chunk_bytes, res));
  rig.eng.run();
  return res;
}

TEST(Prefetcher, HidesIoBehindCompute) {
  // With compute >= chunk I/O time, waits after the first chunk vanish.
  const auto pf = run_prefetch(0.2, 16, 256 * 1024);
  // Only the cold first chunk should cost real wait.
  EXPECT_LT(pf.wait, 0.2);
  // Elapsed ~ first fetch + 16 * compute + copies.
  EXPECT_LT(pf.elapsed, 16 * 0.2 + 0.5);
}

TEST(Prefetcher, FasterThanSerialReads) {
  Rig rig_serial;
  const pfs::FileId fs_f = rig_serial.fs.create("ser");
  double serial_elapsed = 0.0;
  rig_serial.eng.spawn(
      [](Rig& r, pfs::FileId f, double& out) -> simkit::Task<void> {
        pfs::FileHandle io =
            co_await r.fs.open(r.machine.compute_node(0), f, nullptr,
                               pfs::InterfaceParams::passion());
        const simkit::Time t0 = r.eng.now();
        for (std::uint64_t i = 0; i < 16; ++i) {
          co_await io.pread(i * 256 * 1024, 256 * 1024);
          co_await r.eng.delay(0.1);
        }
        out = r.eng.now() - t0;
      }(rig_serial, fs_f, serial_elapsed));
  rig_serial.eng.run();

  const auto pf = run_prefetch(0.1, 16, 256 * 1024);
  EXPECT_LT(pf.elapsed, serial_elapsed);
}

TEST(Prefetcher, AccountsWaitWhenComputeIsShort) {
  // With near-zero compute the consumer must wait for nearly every chunk.
  const auto pf = run_prefetch(0.0001, 8, 256 * 1024);
  EXPECT_GT(pf.wait, 0.01);
  EXPECT_GT(pf.copy, 0.0);
}

TEST(Prefetcher, DeliversExactChunkCount) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("n");
  std::uint64_t delivered = 0;
  rig.eng.spawn([](Rig& r, pfs::FileId f, std::uint64_t& out)
                    -> simkit::Task<void> {
    pfs::FileHandle io = co_await r.fs.open(
        r.machine.compute_node(0), f, nullptr, pfs::InterfaceParams::passion());
    Prefetcher pf(io, 0, 64 * 1024, 5 * 64 * 1024);
    while (!pf.done()) (void)co_await pf.next();
    // Extra next() calls are harmless no-ops.
    (void)co_await pf.next();
    out = pf.chunks_delivered();
  }(rig, f, delivered));
  rig.eng.run();
  EXPECT_EQ(delivered, 5u);
}

TEST(Prefetcher, RecordsWaitPlusCopyAsOneRead) {
  // The paper's accounting: each delivered chunk is one Read on the
  // handle's tracer, costed as the consumer's wait plus the staging copy.
  Rig rig;
  const pfs::FileId f = rig.fs.create("t");
  trace::IoTracer tracer(/*keep_events=*/true);
  double wait = 0.0, copy = 0.0;
  rig.eng.spawn([](Rig& r, pfs::FileId f, trace::IoTracer& tr, double& w,
                   double& c) -> simkit::Task<void> {
    pfs::FileHandle io = co_await r.fs.open(
        r.machine.compute_node(0), f, &tr, pfs::InterfaceParams::passion());
    Prefetcher pf(io, 0, 64 * 1024, 5 * 64 * 1024 + 4096);
    while (!pf.done()) (void)co_await pf.next();
    w = pf.wait_time();
    c = pf.copy_time();
  }(rig, f, tracer, wait, copy));
  rig.eng.run();
  const trace::KindSummary& reads = tracer.summary(pfs::OpKind::kRead);
  EXPECT_EQ(reads.count(), 6u);
  EXPECT_EQ(reads.bytes, 5u * 64 * 1024 + 4096);
  std::vector<std::uint64_t> sizes;
  for (const trace::OpRecord& ev : tracer.events()) {
    if (ev.kind == pfs::OpKind::kRead) sizes.push_back(ev.bytes);
  }
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{65536, 65536, 65536, 65536,
                                               65536, 4096}));
  EXPECT_GT(copy, 0.0);
  EXPECT_NEAR(reads.time(), wait + copy, 1e-12);
}

TEST(Prefetcher, BackedModeReturnsRealBytes) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("d", /*backed=*/true);
  std::vector<std::byte> content(4 * 64 * 1024);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::byte>(i % 239);
  }
  rig.fs.poke(f, 0, content);
  bool all_match = true;
  rig.eng.spawn([](Rig& r, pfs::FileId f, std::span<const std::byte> ref,
                   bool& ok) -> simkit::Task<void> {
    pfs::FileHandle io = co_await r.fs.open(
        r.machine.compute_node(0), f, nullptr, pfs::InterfaceParams::passion());
    Prefetcher pf(io, 0, 64 * 1024, 4 * 64 * 1024, /*backed=*/true);
    std::uint64_t idx = 0;
    while (!pf.done()) {
      auto chunk = co_await pf.next();
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (chunk[i] != ref[idx * 64 * 1024 + i]) {
          ok = false;
          co_return;
        }
      }
      ++idx;
    }
  }(rig, f, content, all_match));
  rig.eng.run();
  EXPECT_TRUE(all_match);
}

}  // namespace
}  // namespace pario
