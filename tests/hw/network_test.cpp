// Tests for topology geometry and endpoint-contention transfers.
#include "hw/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "simkit/engine.hpp"
#include "simkit/framepool.hpp"

namespace hw {
namespace {

TEST(MeshTopology, ManhattanHops) {
  MeshTopology m(4, 14);
  EXPECT_EQ(m.hops(0, 0), 0u);
  EXPECT_EQ(m.hops(0, 3), 3u);   // same row
  EXPECT_EQ(m.hops(0, 4), 1u);   // next row
  EXPECT_EQ(m.hops(0, 55), 3u + 13u);  // opposite corner
  EXPECT_EQ(m.node_count(), 56u);
}

TEST(SwitchTopology, ConstantHops) {
  SwitchTopology s(80, 3);
  EXPECT_EQ(s.hops(0, 0), 0u);
  EXPECT_EQ(s.hops(0, 79), 3u);
  EXPECT_EQ(s.hops(5, 6), 3u);
}

NetParams fast_params() {
  NetParams p;
  p.link_mb_per_s = 100.0;
  p.per_hop_latency_us = 1.0;
  p.sw_overhead_us = 10.0;
  return p;
}

TEST(Network, UncontendedTransferTiming) {
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  double done_at = -1.0;
  eng.spawn([](simkit::Engine& e, Network& n, double& out)
                -> simkit::Task<void> {
    co_await n.transfer(0, 3, 1'000'000);  // 3 hops, 1 MB
    out = e.now();
  }(eng, net, done_at));
  eng.run();
  // sw 10us + src serialization 10ms + 3us prop + dst serialization 10ms
  EXPECT_NEAR(done_at, 10e-6 + 0.01 + 3e-6 + 0.01, 1e-9);
}

TEST(Network, LocalTransferPaysOneCopy) {
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  double done_at = -1.0;
  eng.spawn([](simkit::Engine& e, Network& n, double& out)
                -> simkit::Task<void> {
    co_await n.transfer(2, 2, 1'000'000);
    out = e.now();
  }(eng, net, done_at));
  eng.run();
  EXPECT_NEAR(done_at, 10e-6 + 0.01, 1e-9);
}

TEST(Network, ReceiverNicContentionSerializes) {
  // Many senders to one destination: completions must spread out by at
  // least the receiver serialization time each.
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  std::vector<double> done;
  constexpr int kSenders = 6;
  for (int s = 0; s < kSenders; ++s) {
    eng.spawn([](simkit::Engine& e, Network& n, std::vector<double>& out,
                 NodeId src) -> simkit::Task<void> {
      co_await n.transfer(src, 15, 2'000'000);  // 20 ms at the NIC
      out.push_back(e.now());
    }(eng, net, done, static_cast<NodeId>(s)));
  }
  eng.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kSenders));
  std::sort(done.begin(), done.end());
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_GE(done[i] - done[i - 1], 0.02 - 1e-9);
  }
  // Total time ~ kSenders * 20 ms: the shared endpoint is the bottleneck.
  EXPECT_GE(done.back(), kSenders * 0.02 - 1e-9);
}

TEST(Network, DisjointPairsProceedInParallel) {
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  std::vector<double> done;
  eng.spawn([](simkit::Engine& e, Network& n, std::vector<double>& out)
                -> simkit::Task<void> {
    co_await n.transfer(0, 1, 2'000'000);
    out.push_back(e.now());
  }(eng, net, done));
  eng.spawn([](simkit::Engine& e, Network& n, std::vector<double>& out)
                -> simkit::Task<void> {
    co_await n.transfer(2, 3, 2'000'000);
    out.push_back(e.now());
  }(eng, net, done));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  // Both finish at the uncontended time: ~40.011 ms.
  EXPECT_NEAR(done[0], done[1], 1e-9);
  EXPECT_LT(done[0], 0.05);
}

// transfer() holds its NICs in its own frame: one frame per call, local
// or remote (a sub-task per NIC hold would add two).
TEST(Network, TransferAllocatesOneFrame) {
  using simkit::detail::FramePool;
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  std::uint64_t remote = 0, local = 0;
  eng.spawn([](Network& n, std::uint64_t& remote,
               std::uint64_t& local) -> simkit::Task<void> {
    auto before = FramePool::stats().allocs;
    co_await n.transfer(0, 3, 1'000'000);
    remote = FramePool::stats().allocs - before;
    before = FramePool::stats().allocs;
    co_await n.transfer(2, 2, 1'000'000);
    local = FramePool::stats().allocs - before;
  }(net, remote, local));
  eng.run();
  EXPECT_EQ(remote, 1u);
  EXPECT_EQ(local, 1u);
}

// Senders queued on one source NIC and on one destination NIC, with
// staggered starts and same-instant ties: every completion time and the
// completion order are pinned, so the NIC holds keep the exact schedule
// (FIFO grants, same instants, same tie-breaks).
TEST(Network, ContendedTransfersKeepExactSchedule) {
  struct Flow {
    int id;
    NodeId src, dst;
    std::uint64_t bytes;
    double start;
  };
  const std::vector<Flow> flows = {
      {0, 0, 5, 1'000'000, 0.0},    // source NIC 0 and destination NIC 5
      {1, 0, 9, 400'000, 0.0},      // same instant, same source NIC
      {2, 2, 5, 250'000, 0.0},      // destination NIC 5
      {3, 1, 5, 1'500'000, 0.001},  // destination NIC 5
      {4, 0, 6, 500'000, 0.002},    // source NIC 0
      {5, 0, 15, 2'000'000, 0.003}, // source NIC 0
      {6, 3, 6, 1'000'000, 0.004},  // destination NIC 6
      {7, 4, 5, 100'000, 0.0105},   // destination NIC 5, mid-queue
  };
  simkit::Engine eng;
  Network net(eng, std::make_unique<MeshTopology>(4, 4), fast_params());
  std::vector<std::pair<int, double>> done;
  for (const Flow& f : flows) {
    eng.spawn([](simkit::Engine& e, Network& n, Flow f,
                 std::vector<std::pair<int, double>>& out)
                  -> simkit::Task<void> {
      co_await e.delay(f.start);
      co_await n.transfer(f.src, f.dst, f.bytes);
      out.emplace_back(f.id, e.now());
    }(eng, net, f, done));
  }
  eng.run();
  // Flow 7 reaches NIC 5 before flow 3 and is served first; flows 4
  // and 5 queue on NIC 0 behind the same-instant pair 0 and 1.
  const std::vector<std::pair<int, double>> want = {
      {2, 0.005012},
      {1, 0.018013000000000001},
      {0, 0.020012000000000002},
      {7, 0.021012000000000003},
      {6, 0.024011999999999999},
      {4, 0.029012},
      {3, 0.036012000000000002},
      {5, 0.059015999999999999},
  };
  ASSERT_EQ(done.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(done[i].first, want[i].first) << "completion " << i;
    EXPECT_DOUBLE_EQ(done[i].second, want[i].second) << "completion " << i;
  }
}

}  // namespace
}  // namespace hw
