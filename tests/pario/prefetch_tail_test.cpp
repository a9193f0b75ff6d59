// Tests for the prefetcher's non-multiple tail handling (the Table 2/3
// volume-accounting fix).
#include <gtest/gtest.h>

#include "hw/machine.hpp"
#include "pario/prefetch.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace pario {
namespace {

struct Rig {
  simkit::Engine eng;
  hw::Machine machine;
  pfs::StripedFs fs;
  Rig() : machine(eng, hw::MachineConfig::paragon_large(4, 12)), fs(machine) {}
};

TEST(PrefetcherTail, LastChunkIsShort) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("tail");
  std::vector<std::uint64_t> lens;
  rig.eng.spawn([](Rig& r, pfs::FileId f,
                   std::vector<std::uint64_t>& out) -> simkit::Task<void> {
    pfs::FileHandle io = co_await r.fs.open(
        r.machine.compute_node(0), f, nullptr, pfs::InterfaceParams::passion());
    // 100 KB in 32 KB chunks: 32, 32, 32, 4.
    Prefetcher pf(io, 0, 32 * 1024, 100 * 1024);
    while (!pf.done()) {
      (void)co_await pf.next();
      out.push_back(pf.last_len());
    }
  }(rig, f, lens));
  rig.eng.run();
  EXPECT_EQ(lens, (std::vector<std::uint64_t>{32768, 32768, 32768, 4096}));
}

TEST(PrefetcherTail, ExactMultipleHasNoShortChunk) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("even");
  std::uint64_t chunks = 0, short_chunks = 0;
  rig.eng.spawn([](Rig& r, pfs::FileId f, std::uint64_t& n,
                   std::uint64_t& s) -> simkit::Task<void> {
    pfs::FileHandle io = co_await r.fs.open(
        r.machine.compute_node(0), f, nullptr, pfs::InterfaceParams::passion());
    Prefetcher pf(io, 0, 64 * 1024, 4 * 64 * 1024);
    while (!pf.done()) {
      (void)co_await pf.next();
      ++n;
      if (pf.last_len() != 64 * 1024) ++s;
    }
  }(rig, f, chunks, short_chunks));
  rig.eng.run();
  EXPECT_EQ(chunks, 4u);
  EXPECT_EQ(short_chunks, 0u);
}

TEST(PrefetcherTail, ZeroBytesIsImmediatelyDone) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("zero");
  bool was_done = false;
  rig.eng.spawn([](Rig& r, pfs::FileId f, bool& d) -> simkit::Task<void> {
    pfs::FileHandle io = co_await r.fs.open(
        r.machine.compute_node(0), f, nullptr, pfs::InterfaceParams::passion());
    Prefetcher pf(io, 0, 64 * 1024, 0);
    d = pf.done();
    (void)co_await pf.next();  // harmless no-op
  }(rig, f, was_done));
  rig.eng.run();
  EXPECT_TRUE(was_done);
}

TEST(PrefetcherTail, BackedTailSpanHasTailLength) {
  Rig rig;
  const pfs::FileId f = rig.fs.create("bt", /*backed=*/true);
  std::vector<std::byte> content(3 * 16 * 1024 + 100);
  for (std::size_t i = 0; i < content.size(); ++i) {
    content[i] = static_cast<std::byte>(i % 251);
  }
  rig.fs.poke(f, 0, content);
  std::size_t last_span = 0;
  bool bytes_ok = true;
  rig.eng.spawn([](Rig& r, pfs::FileId f, std::span<const std::byte> ref,
                   std::size_t& last, bool& ok) -> simkit::Task<void> {
    pfs::FileHandle io = co_await r.fs.open(
        r.machine.compute_node(0), f, nullptr, pfs::InterfaceParams::passion());
    Prefetcher pf(io, 0, 16 * 1024, ref.size(), /*backed=*/true);
    std::uint64_t pos = 0;
    while (!pf.done()) {
      auto chunk = co_await pf.next();
      last = chunk.size();
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (chunk[i] != ref[pos + i]) ok = false;
      }
      pos += chunk.size();
    }
  }(rig, f, content, last_span, bytes_ok));
  rig.eng.run();
  EXPECT_EQ(last_span, 100u);
  EXPECT_TRUE(bytes_ok);
}

}  // namespace
}  // namespace pario
