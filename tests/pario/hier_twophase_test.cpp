// Tests for the two-phase engine under the routed collective topology.
// Under kTwoLevel the group leaders do the file I/O and the replicated
// extent table is replaced by a bounds allreduce plus inline sub-extent
// records.  Byte-equivalence against kFlat is the contract (DESIGN.md §16).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "hw/machine.hpp"
#include "mprt/collectives.hpp"
#include "mprt/comm.hpp"
#include "pario/twophase.hpp"
#include "pfs/fs.hpp"
#include "simkit/engine.hpp"

namespace pario {
namespace {

constexpr std::uint64_t kRec = 512;

// Pseudo-random disjoint decomposition: global record i belongs to rank
// hash(i) % p; per-rank buffer offsets are sequential in record order.
std::vector<Extent> scattered(int rank, int p, std::uint64_t nrecs,
                              unsigned seed) {
  std::vector<Extent> out;
  std::uint64_t buf = 0;
  for (std::uint64_t i = 0; i < nrecs; ++i) {
    const unsigned owner =
        ((static_cast<unsigned>(i) * 2654435761u) ^ seed) %
        static_cast<unsigned>(p);
    if (owner == static_cast<unsigned>(rank)) {
      out.push_back(Extent{i * kRec, kRec, buf});
      buf += kRec;
    }
  }
  return out;
}

std::uint64_t my_bytes(int rank, int p, std::uint64_t nrecs, unsigned seed) {
  std::uint64_t n = 0;
  for (const auto& e : scattered(rank, p, nrecs, seed)) n += e.length;
  return n;
}

// Run a collective write of the scattered decomposition under `topo` and
// return the whole resulting file image.
std::vector<std::byte> write_image(mprt::CollectiveTopology topo, int p,
                                   std::uint64_t nrecs, unsigned seed) {
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("hier", /*backed=*/true);
  mprt::Cluster cluster(machine, p);
  cluster.set_topology(topo);
  const std::function<simkit::Task<void>(mprt::Comm&)> body =
      [&](mprt::Comm& c) -> simkit::Task<void> {
    auto mine = scattered(c.rank(), p, nrecs, seed);
    std::vector<std::byte> data(my_bytes(c.rank(), p, nrecs, seed));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(c.rank() * 41 + i);
    }
    co_await TwoPhase::write(c, fs, f, std::move(mine), data);
  };
  eng.spawn(cluster.run(body));
  eng.run();
  std::vector<std::byte> whole(nrecs * kRec);
  fs.peek(f, 0, whole);
  return whole;
}

TEST(HierTwoPhase, WriteMatchesFlatByteForByte) {
  for (int p : {3, 8}) {
    for (unsigned seed : {1u, 9u}) {
      const auto flat = write_image(
          {mprt::CollectiveTopology::Kind::kFlat, 0}, p, 64, seed);
      for (int width : {0, 2, p}) {
        const auto hier = write_image(
            {mprt::CollectiveTopology::Kind::kTwoLevel, width}, p, 64,
            seed);
        EXPECT_EQ(hier, flat) << "p=" << p << " width=" << width
                              << " seed=" << seed;
      }
    }
  }
}

// Run a collective read of the scattered decomposition under `topo` from a
// poked file image and return every rank's buffer.
std::vector<std::vector<std::byte>> read_buffers(
    mprt::CollectiveTopology topo, int p, const std::vector<std::byte>& image,
    unsigned seed) {
  const std::uint64_t nrecs = image.size() / kRec;
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("hier_read", /*backed=*/true);
  fs.poke(f, 0, image);
  mprt::Cluster cluster(machine, p);
  cluster.set_topology(topo);
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(p));
  const std::function<simkit::Task<void>(mprt::Comm&)> body =
      [&](mprt::Comm& c) -> simkit::Task<void> {
    auto& back = out[static_cast<std::size_t>(c.rank())];
    back.assign(my_bytes(c.rank(), p, nrecs, seed), std::byte{0xEE});
    co_await TwoPhase::read(c, fs, f, scattered(c.rank(), p, nrecs, seed),
                            back);
  };
  eng.spawn(cluster.run(body));
  eng.run();
  return out;
}

TEST(HierTwoPhase, ReadMatchesFlatByteForByte) {
  std::vector<std::byte> image(64 * kRec);
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = static_cast<std::byte>(i * 7 + i / 251);
  }
  for (int p : {3, 8}) {
    for (unsigned seed : {1u, 9u}) {
      const auto flat = read_buffers(
          {mprt::CollectiveTopology::Kind::kFlat, 0}, p, image, seed);
      // The flat read itself must be right, not merely consistent.
      for (int r = 0; r < p; ++r) {
        std::vector<std::byte> want;
        for (const auto& e : scattered(r, p, 64, seed)) {
          want.insert(want.end(), image.begin() + e.file_offset,
                      image.begin() + e.file_end());
        }
        EXPECT_EQ(flat[static_cast<std::size_t>(r)], want)
            << "p=" << p << " rank=" << r << " seed=" << seed;
      }
      for (int width : {0, 2, p}) {
        const auto hier = read_buffers(
            {mprt::CollectiveTopology::Kind::kTwoLevel, width}, p, image,
            seed);
        EXPECT_EQ(hier, flat) << "p=" << p << " width=" << width
                              << " seed=" << seed;
      }
    }
  }
}

// The hierarchical twin of TwoPhase.FailedRetriedReadLeavesLaterRunsValid:
// a leader whose retry ladder runs dry abandons its remaining runs, yet
// still serves the reply round from valid (zero-filled) run buffers, and
// rethrows only after every rank has its reply.
TEST(HierTwoPhase, FailedRetriedReadLeavesLaterRunsValid) {
  const int p = 4;
  fault::InjectionPlan plan;
  plan.crash_node(0, 0.0, 1e6);  // both servers down: every leader's
  plan.crash_node(1, 0.0, 1e6);  // first run fails, later runs stay unread
  fault::Injector inj(plan);
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
  pfs::StripedFs fs(machine, &inj);
  const pfs::FileId f = fs.create("doomed", /*backed=*/true);
  std::vector<std::byte> content(256 * 1024, std::byte{0x5A});
  fs.poke(f, 0, content);
  mprt::Cluster cluster(machine, p);
  cluster.set_topology({mprt::CollectiveTopology::Kind::kTwoLevel, 2});

  RetryPolicy policy;
  policy.max_attempts = 2;
  RetryStats stats;
  TwoPhaseOptions opt;
  opt.retry = &policy;
  opt.retry_stats = &stats;

  std::vector<bool> threw(p, false);
  std::vector<std::vector<std::byte>> back(
      p, std::vector<std::byte>(32 * 512, std::byte{0xEE}));
  int done = 0;
  const std::function<simkit::Task<void>(mprt::Comm&)> body =
      [&](mprt::Comm& c) -> simkit::Task<void> {
    const int r = c.rank();
    // 512-byte records on a 2 KB stride over 256 KB: each leader's
    // 128 KB domain holds 64 runs merge_runs cannot coalesce.
    std::vector<Extent> mine;
    for (std::uint64_t i = 0; i < 32; ++i) {
      mine.push_back(Extent{(i * p + static_cast<std::uint64_t>(r)) * 2048,
                            512, i * 512});
    }
    try {
      co_await TwoPhase::read(c, fs, f, mine,
                              back[static_cast<std::size_t>(r)], nullptr,
                              opt);
    } catch (const pfs::IoError&) {
      threw[static_cast<std::size_t>(r)] = true;
    }
    ++done;
  };
  eng.spawn(cluster.run(body));
  eng.run();
  EXPECT_EQ(done, p) << "every rank must finish the reply round";
  // Leaders 0 and 2 own the two domains and see the error; members only
  // exchange, so they complete normally.
  EXPECT_EQ(threw, (std::vector<bool>{true, false, true, false}));
  EXPECT_GT(stats.exhausted, 0u);
  for (int r = 0; r < p; ++r) {
    const auto& b = back[static_cast<std::size_t>(r)];
    EXPECT_TRUE(std::all_of(b.begin(), b.end(),
                            [](std::byte x) { return x == std::byte{0}; }))
        << "rank " << r << " must receive the zero-filled runs";
  }
}

TEST(HierTwoPhase, RoundTripRestoresEveryRanksBuffer) {
  const int p = 8;
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(8, 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("hier_rt", true);
  mprt::Cluster cluster(machine, p);
  cluster.set_topology({mprt::CollectiveTopology::Kind::kTwoLevel, 4});
  int good = 0;
  const std::function<simkit::Task<void>(mprt::Comm&)> body =
      [&](mprt::Comm& c) -> simkit::Task<void> {
    auto mine = scattered(c.rank(), p, 96, 5u);
    std::vector<std::byte> data(my_bytes(c.rank(), p, 96, 5u));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::byte>(c.rank() * 17 + i * 3);
    }
    co_await TwoPhase::write(c, fs, f, mine, data);
    std::vector<std::byte> back(data.size());
    co_await TwoPhase::read(c, fs, f, mine, back);
    if (back == data) ++good;
  };
  eng.spawn(cluster.run(body));
  eng.run();
  EXPECT_EQ(good, p);
}

TEST(HierTwoPhase, OnlyGroupLeadersTouchTheFileSystem) {
  const int p = 8;
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(8, 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("hier_agg");
  mprt::Cluster cluster(machine, p);
  cluster.set_topology({mprt::CollectiveTopology::Kind::kTwoLevel, 4});
  TwoPhaseStats per_rank[8];
  const std::function<simkit::Task<void>(mprt::Comm&)> body =
      [&](mprt::Comm& c) -> simkit::Task<void> {
    co_await TwoPhase::write(c, fs, f, scattered(c.rank(), p, 256, 2u), {},
                             &per_rank[c.rank()]);
    co_await TwoPhase::read(c, fs, f, scattered(c.rank(), p, 256, 2u), {},
                            &per_rank[c.rank()]);
  };
  eng.spawn(cluster.run(body));
  eng.run();
  // Leaders at width 4 are ranks 0 and 4 — exactly pario's aggregators.
  for (int r = 0; r < p; ++r) {
    if (r % 4 == 0) {
      EXPECT_GT(per_rank[r].io_calls, 0u) << "leader " << r;
    } else {
      EXPECT_EQ(per_rank[r].io_calls, 0u) << "member " << r;
    }
  }
}

TEST(HierTwoPhase, EmptyCollectiveCompletesEverywhere) {
  // No rank contributes extents: the bounds allreduce yields an empty
  // range and every rank returns without deadlock.
  const int p = 5;
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(5, 2));
  pfs::StripedFs fs(machine);
  const pfs::FileId f = fs.create("hier_empty");
  mprt::Cluster cluster(machine, p);
  cluster.set_topology({mprt::CollectiveTopology::Kind::kTwoLevel, 0});
  int done = 0;
  const std::function<simkit::Task<void>(mprt::Comm&)> body =
      [&](mprt::Comm& c) -> simkit::Task<void> {
    co_await TwoPhase::write(c, fs, f, {});
    co_await TwoPhase::read(c, fs, f, {});
    ++done;
  };
  eng.spawn(cluster.run(body));
  eng.run();
  EXPECT_EQ(done, p);
}

}  // namespace
}  // namespace pario
