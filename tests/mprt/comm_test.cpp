// Tests for ranked send/recv semantics.
#include "mprt/comm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "hw/machine.hpp"
#include "simkit/engine.hpp"
#include "simkit/framepool.hpp"

namespace mprt {
namespace {

struct Rig {
  simkit::Engine eng;
  hw::Machine machine;
  explicit Rig(std::size_t nodes = 8)
      : machine(eng, hw::MachineConfig::paragon_small(nodes, 2)) {}
};

TEST(Comm, PingPong) {
  Rig rig;
  std::vector<int> log;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 7, 100);
      Message m = co_await c.recv(1, 8);
      log.push_back(m.tag);
    } else {
      Message m = co_await c.recv(0, 7);
      log.push_back(m.tag);
      co_await c.send(0, 8, 100);
    }
  });
  EXPECT_EQ(log, (std::vector<int>{7, 8}));
}

// A message costs the send body and its network transfer, nothing more:
// recv runs in the receiver's frame and transfer holds its NICs inline.
// The window opens when rank 0 starts, after every rank frame exists.
TEST(Comm, PingPongAllocatesTwoFramesPerMessage) {
  using simkit::detail::FramePool;
  Rig rig;
  std::uint64_t start = 0, end = 0;
  bool started = false;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (!started) {
      started = true;
      start = FramePool::stats().allocs;
    }
    if (c.rank() == 0) {
      co_await c.send(1, 7, 100);
      (void)co_await c.recv(1, 8);
    } else {
      (void)co_await c.recv(0, 7);
      co_await c.send(0, 8, 100);
    }
    end = FramePool::stats().allocs;
  });
  EXPECT_EQ(end - start, 4u);
}

TEST(Comm, PayloadDeliveredIntact) {
  Rig rig;
  std::vector<std::byte> got;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      std::vector<std::byte> data(64);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::byte>(i * 3);
      }
      co_await c.send(1, 0, data.size(), data);
    } else {
      Message m = co_await c.recv(0, 0);
      got = std::move(m.payload);
    }
  });
  ASSERT_EQ(got.size(), 64u);
  EXPECT_EQ(got[10], static_cast<std::byte>(30));
}

TEST(Comm, TagMatchingSkipsNonMatching) {
  Rig rig;
  std::vector<int> order;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 5, 10);
      co_await c.send(1, 6, 10);
    } else {
      Message m6 = co_await c.recv(0, 6);  // must match tag 6 first
      order.push_back(m6.tag);
      Message m5 = co_await c.recv(0, 5);
      order.push_back(m5.tag);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{6, 5}));
}

TEST(Comm, AnySourceReceivesFromWhoeverArrives) {
  Rig rig;
  std::vector<Rank> sources;
  Cluster::execute(rig.machine, 4, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i) {
        Message m = co_await c.recv(kAnySource, 1);
        sources.push_back(m.src);
      }
    } else {
      // Stagger arrival by rank so order is deterministic.
      co_await c.engine().delay(0.001 * c.rank());
      co_await c.send(0, 1, 10);
    }
  });
  EXPECT_EQ(sources, (std::vector<Rank>{1, 2, 3}));
}

TEST(Comm, FifoBetweenSamePair) {
  Rig rig;
  std::vector<std::uint64_t> sizes;
  Cluster::execute(rig.machine, 2, [&](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      for (std::uint64_t i = 1; i <= 5; ++i) co_await c.send(1, 0, i);
    } else {
      for (int i = 0; i < 5; ++i) {
        Message m = co_await c.recv(0, 0);
        sizes.push_back(m.bytes);
      }
    }
  });
  EXPECT_EQ(sizes, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(Comm, TransferTimeScalesWithBytes) {
  auto run_msg = [](std::uint64_t bytes) {
    simkit::Engine eng;
    hw::Machine machine(eng, hw::MachineConfig::paragon_small(4, 2));
    return Cluster::execute(machine, 2, [&](Comm& c) -> simkit::Task<void> {
      if (c.rank() == 0) {
        co_await c.send(1, 0, bytes);
      } else {
        (void)co_await c.recv(0, 0);
      }
    });
  };
  const double small = run_msg(10'000);
  const double big = run_msg(10'000'000);
  EXPECT_GT(big, 50.0 * small);
}

TEST(Comm, CountsTraffic) {
  Rig rig;
  Cluster cluster(rig.machine, 2);
  // Named: Cluster::run is a lazy coroutine holding `body` by reference,
  // so a temporary would die before the ranks start.
  const std::function<simkit::Task<void>(Comm&)> body =
      [](Comm& c) -> simkit::Task<void> {
    if (c.rank() == 0) {
      co_await c.send(1, 0, 500);
      co_await c.send(1, 0, 700);
    } else {
      (void)co_await c.recv(0, 0);
      (void)co_await c.recv(0, 0);
    }
  };
  rig.eng.spawn(cluster.run(body));
  rig.eng.run();
  EXPECT_EQ(cluster.comm(0).messages_sent(), 2u);
  EXPECT_EQ(cluster.comm(0).bytes_sent(), 1200u);
}

TEST(Cluster, RanksMapToDistinctComputeNodes) {
  Rig rig;
  Cluster cluster(rig.machine, 4);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.comm(r).node(),
              rig.machine.compute_node(static_cast<std::size_t>(r)));
  }
}

}  // namespace
}  // namespace mprt
