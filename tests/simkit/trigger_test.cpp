// Tests for Trigger.
#include "simkit/trigger.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "simkit/engine.hpp"

namespace simkit {
namespace {

TEST(Trigger, ReleasesAllWaiters) {
  Engine eng;
  Trigger t;
  std::vector<double> wake_times;
  for (int i = 0; i < 4; ++i) {
    eng.spawn([](Engine& e, Trigger& t, std::vector<double>& out)
                  -> Task<void> {
      co_await t.wait();
      out.push_back(e.now());
    }(eng, t, wake_times));
  }
  eng.spawn([](Engine& e, Trigger& t) -> Task<void> {
    co_await e.delay(2.0);
    t.fire(e);
  }(eng, t));
  eng.run();
  ASSERT_EQ(wake_times.size(), 4u);
  for (double w : wake_times) EXPECT_DOUBLE_EQ(w, 2.0);
}

TEST(Trigger, WaitAfterFireIsImmediate) {
  Engine eng;
  Trigger t;
  double wake = -1.0;
  eng.spawn([](Engine& e, Trigger& t, double& out) -> Task<void> {
    t.fire(e);
    co_await e.delay(5.0);
    co_await t.wait();  // already fired: no extra delay
    out = e.now();
  }(eng, t, wake));
  eng.run();
  EXPECT_DOUBLE_EQ(wake, 5.0);
}

TEST(Trigger, FireIsIdempotent) {
  Engine eng;
  Trigger t;
  int wakes = 0;
  eng.spawn([](Engine&, Trigger& t, int& n) -> Task<void> {
    co_await t.wait();
    ++n;
  }(eng, t, wakes));
  eng.spawn([](Engine& e, Trigger& t) -> Task<void> {
    t.fire(e);
    t.fire(e);
    co_return;
  }(eng, t));
  eng.run();
  EXPECT_EQ(wakes, 1);
}

}  // namespace
}  // namespace simkit
