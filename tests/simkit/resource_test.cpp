// Tests for Resource: FIFO granting, conservation, contention timing.
#include "simkit/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simkit/engine.hpp"

namespace simkit {
namespace {

TEST(Resource, ImmediateAcquireWhenAvailable) {
  Engine eng;
  Resource r(eng, 2);
  double t_acq = -1.0;
  eng.spawn([](Engine& e, Resource& r, double& out) -> Task<void> {
    co_await r.acquire();
    out = e.now();
    r.release();
  }(eng, r, t_acq));
  eng.run();
  EXPECT_DOUBLE_EQ(t_acq, 0.0);
  EXPECT_EQ(r.available(), 2u);
}

TEST(Resource, ContentionSerializesHolders) {
  Engine eng;
  Resource r(eng, 1);
  std::vector<double> acquire_times;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Resource& r, std::vector<double>& out)
                  -> Task<void> {
      co_await r.acquire();
      out.push_back(e.now());
      co_await e.delay(2.0);
      r.release();
    }(eng, r, acquire_times));
  }
  eng.run();
  ASSERT_EQ(acquire_times.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(acquire_times[static_cast<std::size_t>(i)], 2.0 * i);
  }
}

TEST(Resource, FifoOrderAmongWaiters) {
  Engine eng;
  Resource r(eng, 1);
  std::vector<int> order;
  // Occupy the resource so all later arrivals queue.
  eng.spawn([](Engine& e, Resource& r) -> Task<void> {
    co_await r.acquire();
    co_await e.delay(10.0);
    r.release();
  }(eng, r));
  for (int i = 0; i < 5; ++i) {
    eng.spawn([](Engine& e, Resource& r, std::vector<int>& out,
                 int id) -> Task<void> {
      co_await e.delay(static_cast<double>(id));  // arrive in id order
      co_await r.acquire();
      out.push_back(id);
      r.release();
    }(eng, r, order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Resource, LargeRequestBlocksLaterSmallOnes) {
  Engine eng;
  Resource r(eng, 4);
  std::vector<int> order;
  eng.spawn([](Engine& e, Resource& r, std::vector<int>& out) -> Task<void> {
    co_await r.acquire(3);  // leaves 1 unit
    co_await e.delay(5.0);
    r.release(3);
    out.push_back(0);
  }(eng, r, order));
  eng.spawn([](Engine& e, Resource& r, std::vector<int>& out) -> Task<void> {
    co_await e.delay(1.0);
    co_await r.acquire(2);  // must wait: only 1 available
    out.push_back(1);
    r.release(2);
  }(eng, r, order));
  eng.spawn([](Engine& e, Resource& r, std::vector<int>& out) -> Task<void> {
    co_await e.delay(2.0);
    co_await r.acquire(1);  // fits, but FIFO: waiter #1 is ahead
    out.push_back(2);
    r.release(1);
  }(eng, r, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Resource, ConservationUnderHeavyLoad) {
  Engine eng;
  Resource r(eng, 3);
  int max_in_use = 0;
  for (int i = 0; i < 50; ++i) {
    eng.spawn([](Engine& e, Resource& r, int& mx, int id) -> Task<void> {
      co_await e.delay((id % 7) * 0.25);
      co_await r.acquire();
      mx = std::max(mx, static_cast<int>(r.in_use()));
      co_await e.delay(1.0);
      r.release();
    }(eng, r, max_in_use, i));
  }
  eng.run();
  EXPECT_LE(max_in_use, 3);
  EXPECT_EQ(r.available(), 3u);
  EXPECT_EQ(r.queue_length(), 0u);
}

}  // namespace
}  // namespace simkit
