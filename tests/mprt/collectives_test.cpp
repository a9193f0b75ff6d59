// Tests for barrier / bcast / gatherv / alltoallv / allreduce, including
// parameterized sweeps over non-power-of-two rank counts.
#include "mprt/collectives.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "hw/machine.hpp"
#include "metrics/metrics.hpp"
#include "simkit/engine.hpp"

namespace mprt {
namespace {

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BarrierSynchronizesAllRanks) {
  const int p = GetParam();
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  std::vector<double> after(static_cast<std::size_t>(p), -1.0);
  double max_before = 0.0;
  Cluster::execute(machine, p, [&](Comm& c) -> simkit::Task<void> {
    // Ranks arrive at wildly different times.
    co_await c.engine().delay(0.01 * c.rank());
    max_before = std::max(max_before, c.engine().now());
    co_await barrier(c);
    after[static_cast<std::size_t>(c.rank())] = c.engine().now();
  });
  for (double t : after) EXPECT_GE(t, max_before);
}

TEST_P(CollectiveSweep, BcastDeliversRootPayload) {
  const int p = GetParam();
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  const Rank root = p > 2 ? 2 : 0;
  std::vector<std::vector<std::byte>> got(static_cast<std::size_t>(p));
  Cluster::execute(machine, p, [&](Comm& c) -> simkit::Task<void> {
    std::vector<std::byte> buf(16);
    if (c.rank() == root) {
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::byte>(0xA0 + i);
      }
    }
    co_await bcast(c, root, buf.size(), buf);
    got[static_cast<std::size_t>(c.rank())] = buf;
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)][0], std::byte{0xA0})
        << "rank " << r;
    EXPECT_EQ(got[static_cast<std::size_t>(r)][15], std::byte{0xAF});
  }
}

TEST_P(CollectiveSweep, GathervCollectsAllBlocks) {
  const int p = GetParam();
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  std::vector<Message> at_root;
  Cluster::execute(machine, p, [&](Comm& c) -> simkit::Task<void> {
    std::vector<std::byte> mine(static_cast<std::size_t>(c.rank()) + 1,
                                static_cast<std::byte>(c.rank()));
    auto msgs = co_await gatherv(c, 0, mine.size(), mine);
    if (c.rank() == 0) at_root = std::move(msgs);
  });
  ASSERT_EQ(at_root.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const auto& m = at_root[static_cast<std::size_t>(r)];
    EXPECT_EQ(m.src, r);
    EXPECT_EQ(m.bytes, static_cast<std::uint64_t>(r) + 1);
    EXPECT_EQ(m.payload.size(), static_cast<std::size_t>(r) + 1);
    if (!m.payload.empty()) {
      EXPECT_EQ(m.payload[0], static_cast<std::byte>(r));
    }
  }
}

TEST_P(CollectiveSweep, AlltoallvExchangesPersonalizedData) {
  const int p = GetParam();
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  std::vector<bool> ok(static_cast<std::size_t>(p), false);
  Cluster::execute(machine, p, [&](Comm& c) -> simkit::Task<void> {
    const int r = c.rank();
    // Rank r sends byte value (r*16+d) to destination d, length r+d+1.
    std::vector<Outgoing> sends;
    for (int d = 0; d < p; ++d) {
      const auto n = static_cast<std::size_t>(r + d + 1);
      sends.push_back({d, n, std::vector<std::byte>(
                                 n, static_cast<std::byte>(r * 16 + d))});
    }
    auto msgs = co_await alltoallv(c, std::move(sends));
    bool all_good = msgs.size() == static_cast<std::size_t>(p);
    for (int s = 0; s < p && all_good; ++s) {
      const auto& m = msgs[static_cast<std::size_t>(s)];
      all_good = m.src == s &&
                 m.payload.size() == static_cast<std::size_t>(s + r + 1) &&
                 m.payload[0] == static_cast<std::byte>(s * 16 + r);
    }
    ok[static_cast<std::size_t>(r)] = all_good;
  });
  for (int r = 0; r < p; ++r) EXPECT_TRUE(ok[static_cast<std::size_t>(r)]);
}

TEST_P(CollectiveSweep, AllreduceSumMatchesClosedForm) {
  const int p = GetParam();
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  std::vector<std::vector<double>> results(static_cast<std::size_t>(p));
  Cluster::execute(machine, p, [&](Comm& c) -> simkit::Task<void> {
    std::vector<double> v{static_cast<double>(c.rank()),
                          1.0, static_cast<double>(c.rank() * c.rank())};
    co_await allreduce(c, v, ReduceOp::kSum);
    results[static_cast<std::size_t>(c.rank())] = v;
  });
  const double n = p;
  const double sum_r = n * (n - 1) / 2.0;
  const double sum_r2 = (n - 1) * n * (2 * n - 1) / 6.0;
  for (int r = 0; r < p; ++r) {
    const auto& v = results[static_cast<std::size_t>(r)];
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[0], sum_r);
    EXPECT_DOUBLE_EQ(v[1], n);
    EXPECT_DOUBLE_EQ(v[2], sum_r2);
  }
}

TEST_P(CollectiveSweep, AllreduceMinMax) {
  const int p = GetParam();
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  std::vector<double> mins, maxs;
  Cluster::execute(machine, p, [&](Comm& c) -> simkit::Task<void> {
    std::vector<double> lo{static_cast<double>(c.rank())};
    std::vector<double> hi{static_cast<double>(c.rank())};
    co_await allreduce(c, lo, ReduceOp::kMin);
    co_await allreduce(c, hi, ReduceOp::kMax);
    if (c.rank() == 0) {
      mins = lo;
      maxs = hi;
    }
  });
  EXPECT_DOUBLE_EQ(mins[0], 0.0);
  EXPECT_DOUBLE_EQ(maxs[0], static_cast<double>(p - 1));
}

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectiveSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST(Collectives, BarrierCostGrowsLogarithmically) {
  auto barrier_time = [](int p) {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::paragon_small(
                                 static_cast<std::size_t>(p), 2));
    return Cluster::execute(machine, p, [](Comm& c) -> simkit::Task<void> {
      co_await barrier(c);
    });
  };
  const double t4 = barrier_time(4);
  const double t32 = barrier_time(32);
  EXPECT_GT(t32, t4);
  EXPECT_LT(t32, 8.0 * t4);  // log growth, not linear
}

// -- routed topology: two-level leader exchange -----------------------------

struct Delivery {
  Rank src;
  std::uint64_t bytes;
  std::vector<std::byte> payload;
  bool operator==(const Delivery&) const = default;
};

// Pseudo-random per-pair sizes (deterministic, seed-mixed): about a
// quarter of the pairs exchange nothing, the rest up to ~300 bytes.
std::uint64_t pair_size(int r, int d, unsigned seed) {
  const unsigned v = (static_cast<unsigned>(r) * 1315423911u) ^
                     (static_cast<unsigned>(d) * 2654435761u) ^ seed;
  if (v % 4 == 0) return 0;
  return v % 300;
}

std::byte pair_byte(int r, int d, unsigned seed) {
  return static_cast<std::byte>(r * 16 + d + static_cast<int>(seed));
}

// Every rank sends its non-empty pairs as a sparse list and returns what
// it received.
std::vector<std::vector<Delivery>> run_alltoallv(CollectiveTopology topo,
                                                 int p, unsigned seed,
                                                 bool with_payloads) {
  simkit::Engine eng;
  hw::Machine machine(
      eng, hw::MachineConfig::paragon_small(static_cast<std::size_t>(p), 2));
  Cluster cluster(machine, p);
  cluster.set_topology(topo);
  std::vector<std::vector<Delivery>> got(static_cast<std::size_t>(p));
  const std::function<simkit::Task<void>(Comm&)> body =
      [&](Comm& c) -> simkit::Task<void> {
    const int r = c.rank();
    std::vector<Outgoing> sends;
    for (int d = 0; d < p; ++d) {
      const std::uint64_t size = pair_size(r, d, seed);
      if (size == 0) continue;
      Outgoing& o = sends.emplace_back(d, size);
      if (with_payloads) o.payload.assign(size, pair_byte(r, d, seed));
    }
    auto msgs = co_await alltoallv(c, std::move(sends));
    auto& mine = got[static_cast<std::size_t>(r)];
    for (auto& m : msgs) {
      mine.push_back(Delivery{m.src, m.bytes, std::move(m.payload)});
    }
  };
  eng.spawn(cluster.run(body));
  eng.run();
  return got;
}

// What rank r must receive: one delivery per non-empty pair (s, r),
// ascending by source, its own pair included.
std::vector<Delivery> expected_for(int r, int p, unsigned seed,
                                   bool with_payloads) {
  std::vector<Delivery> want;
  for (int s = 0; s < p; ++s) {
    const std::uint64_t size = pair_size(s, r, seed);
    if (size == 0) continue;
    std::vector<std::byte> payload;
    if (with_payloads) payload.assign(size, pair_byte(s, r, seed));
    want.push_back(Delivery{s, size, std::move(payload)});
  }
  return want;
}

class TopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(TopologySweep, RoutedAlltoallvMatchesFlat) {
  const int p = GetParam();
  for (unsigned seed : {7u, 19u}) {
    const auto flat =
        run_alltoallv({CollectiveTopology::Kind::kFlat, 0}, p, seed, true);
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(flat[static_cast<std::size_t>(r)],
                expected_for(r, p, seed, true))
          << "flat p=" << p << " rank=" << r << " seed=" << seed;
    }
    // Several widths, including non-divisors and the sqrt default.
    for (int width : {0, 1, 3, 4, p}) {
      const auto two = run_alltoallv(
          {CollectiveTopology::Kind::kTwoLevel, width}, p, seed, true);
      EXPECT_EQ(two, flat) << "two-level p=" << p << " width=" << width
                           << " seed=" << seed;
    }
  }
}

TEST_P(TopologySweep, RoutedTimingOnlyExchangeKeepsSimSizes) {
  const int p = GetParam();
  // No payloads: the routed frames are headers-only, but every delivered
  // message must still carry the correct simulated size.
  const auto flat =
      run_alltoallv({CollectiveTopology::Kind::kFlat, 0}, p, 3u, false);
  const auto two =
      run_alltoallv({CollectiveTopology::Kind::kTwoLevel, 0}, p, 3u, false);
  for (int r = 0; r < p; ++r) {
    const auto ru = static_cast<std::size_t>(r);
    EXPECT_EQ(flat[ru], expected_for(r, p, 3u, false)) << "rank " << r;
    EXPECT_EQ(two[ru], flat[ru]) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(RankCounts, TopologySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 16));

std::uint64_t alltoallv_msgs(CollectiveTopology topo, int p) {
  metrics::Registry reg;
  metrics::Scope scope(reg);
  run_alltoallv(topo, p, 11u, false);
  return reg.counter("mprt.alltoall.msgs").value();
}

TEST(Collectives, TwoLevelMessageCountGrowsLinearly) {
  // Flat is quadratic: doubling P quadruples messages.  Two-level with
  // the sqrt grouping must stay ~linear: doubling P less than triples it.
  const std::uint64_t two32 =
      alltoallv_msgs({CollectiveTopology::Kind::kTwoLevel, 0}, 32);
  const std::uint64_t two64 =
      alltoallv_msgs({CollectiveTopology::Kind::kTwoLevel, 0}, 64);
  EXPECT_LT(two64, 3 * two32);

  const std::uint64_t flat32 =
      alltoallv_msgs({CollectiveTopology::Kind::kFlat, 0}, 32);
  const std::uint64_t flat64 =
      alltoallv_msgs({CollectiveTopology::Kind::kFlat, 0}, 64);
  EXPECT_EQ(flat32, 32u * 32u);
  EXPECT_EQ(flat64, 64u * 64u);
  // At 64 ranks the leader routing is already an order of magnitude
  // below flat.
  EXPECT_GE(flat64, 10 * two64);
}

TEST(Collectives, AlltoallvRejectsBadSends) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
  const std::vector<std::byte> three(3);
  const std::vector<std::vector<Outgoing>> bad = {
      {{1, 8, {}}, {1, 8, {}}},  // duplicate dst
      {{2, 8, {}}, {1, 8, {}}},  // descending
      {{4, 8, {}}},              // dst == P
      {{-1, 8, {}}},             // negative dst
      {{1, 0, {}}},              // empty block
      {{1, 2, three}},           // payload longer than the block
  };
  int rejected = 0;
  Cluster::execute(machine, 4, [&](Comm& c) -> simkit::Task<void> {
    for (const auto& sends : bad) {
      try {
        co_await alltoallv(c, sends);
      } catch (const std::invalid_argument&) {
        ++rejected;
      }
    }
  });
  EXPECT_EQ(rejected, 4 * static_cast<int>(bad.size()));
}

TEST(Collectives, TwoLevelHelpers) {
  EXPECT_EQ(two_level_group_width(16, {CollectiveTopology::Kind::kTwoLevel,
                                       0}),
            4);
  EXPECT_EQ(two_level_group_width(15, {CollectiveTopology::Kind::kTwoLevel,
                                       0}),
            4);  // ceil(sqrt(15))
  EXPECT_EQ(two_level_group_width(16, {CollectiveTopology::Kind::kTwoLevel,
                                       64}),
            16);  // clamped to P
}

TEST(Collectives, ConsecutiveCollectivesDoNotCrossTalk) {
  simkit::Engine eng;
  hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
  std::vector<double> out(4, 0.0);
  Cluster::execute(machine, 4, [&](Comm& c) -> simkit::Task<void> {
    for (int round = 0; round < 5; ++round) {
      std::vector<double> v{1.0};
      co_await allreduce(c, v, ReduceOp::kSum);
      out[static_cast<std::size_t>(c.rank())] += v[0];
      co_await barrier(c);
    }
  });
  for (double v : out) EXPECT_DOUBLE_EQ(v, 20.0);  // 5 rounds x sum 4
}

}  // namespace
}  // namespace mprt
