// Tests for when_all.
#include "simkit/combinators.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace simkit {
namespace {

Task<void> sleeper(Engine& eng, double dt, std::vector<double>* log) {
  co_await eng.delay(dt);
  if (log) log->push_back(eng.now());
}

TEST(WhenAll, WaitsForSlowest) {
  Engine eng;
  double done_at = -1.0;
  eng.spawn([](Engine& e, double& out) -> Task<void> {
    std::vector<Task<void>> tasks;
    tasks.push_back(sleeper(e, 1.0, nullptr));
    tasks.push_back(sleeper(e, 5.0, nullptr));
    tasks.push_back(sleeper(e, 3.0, nullptr));
    co_await when_all(e, std::move(tasks));
    out = e.now();
  }(eng, done_at));
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 5.0);
}

TEST(WhenAll, TasksRunConcurrently) {
  Engine eng;
  std::vector<double> finishes;
  eng.spawn([](Engine& e, std::vector<double>& log) -> Task<void> {
    std::vector<Task<void>> tasks;
    for (int i = 0; i < 4; ++i) tasks.push_back(sleeper(e, 2.0, &log));
    co_await when_all(e, std::move(tasks));
  }(eng, finishes));
  eng.run();
  ASSERT_EQ(finishes.size(), 4u);
  for (double t : finishes) EXPECT_DOUBLE_EQ(t, 2.0);  // parallel, not 2,4,6,8
}

TEST(WhenAll, EmptyListCompletesImmediately) {
  Engine eng;
  double done_at = -1.0;
  eng.spawn([](Engine& e, double& out) -> Task<void> {
    co_await when_all(e, {});
    out = e.now();
  }(eng, done_at));
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(WhenAll, PropagatesFirstErrorAfterAllFinish) {
  Engine eng;
  bool caught = false;
  double caught_at = -1.0;
  auto failing = [](Engine& e, double dt, const char* what) -> Task<void> {
    co_await e.delay(dt);
    throw std::runtime_error(what);
  };
  eng.spawn([](Engine& e, auto failing_fn, bool& c, double& at)
                -> Task<void> {
    std::vector<Task<void>> tasks;
    tasks.push_back(failing_fn(e, 1.0, "first"));
    tasks.push_back(sleeper(e, 4.0, nullptr));  // must still be awaited
    try {
      co_await when_all(e, std::move(tasks));
    } catch (const std::runtime_error& err) {
      c = std::string(err.what()) == "first";
      at = e.now();
    }
  }(eng, failing, caught, caught_at));
  eng.run();
  EXPECT_TRUE(caught);
  EXPECT_DOUBLE_EQ(caught_at, 4.0);  // rethrown only after all completed
}

}  // namespace
}  // namespace simkit
