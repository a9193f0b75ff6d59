// Tests for the coroutine frame pool: size-class recycling, stats,
// and the large-allocation fall-through.
#include "simkit/framepool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "simkit/engine.hpp"
#include "simkit/task.hpp"

namespace simkit {
namespace {

using detail::FramePool;

TEST(FramePool, RecyclesSameSizeClass) {
  FramePool::drain();
  const auto before = FramePool::stats();
  void* a = FramePool::allocate(128);
  std::memset(a, 0xAB, 128);
  FramePool::deallocate(a, 128);
  void* b = FramePool::allocate(128);
  EXPECT_EQ(a, b);  // same class: the parked block comes straight back
  FramePool::deallocate(b, 128);
  const auto after = FramePool::stats();
  EXPECT_EQ(after.allocs, before.allocs + 2);
  EXPECT_EQ(after.deallocs, before.deallocs + 2);
  EXPECT_EQ(after.reuses, before.reuses + 1);
  FramePool::drain();
  EXPECT_EQ(FramePool::stats().retained, 0u);
}

TEST(FramePool, OversizedAllocationsFallThrough) {
  const std::size_t big = FramePool::kGranularity * FramePool::kClasses + 1;
  const auto before = FramePool::stats();
  void* p = FramePool::allocate(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xCD, big);
  FramePool::deallocate(p, big);
  const auto after = FramePool::stats();
  EXPECT_EQ(after.reuses, before.reuses);  // never pooled, never reused
  EXPECT_EQ(after.retained, before.retained);
}

TEST(FramePool, RecyclesBurstsPastTheOldCap) {
  // A 2048-rank collective keeps thousands of same-class frames alive at
  // once; every parked block must come back, not only the first 512.
  constexpr std::size_t kBurst = 2048;
  FramePool::drain();
  std::vector<void*> blocks(kBurst);
  for (void*& b : blocks) b = FramePool::allocate(192);
  for (void* b : blocks) FramePool::deallocate(b, 192);
  const auto before = FramePool::stats();
  EXPECT_EQ(before.retained, kBurst);
  for (void*& b : blocks) b = FramePool::allocate(192);
  EXPECT_EQ(FramePool::stats().reuses, before.reuses + kBurst);
  for (void* b : blocks) FramePool::deallocate(b, 192);
  FramePool::drain();
}

TEST(FramePool, CoroutineFramesActuallyPool) {
  // Spawn/await churn must hit the reuse path: after a warm-up frame
  // is freed, subsequent same-shape frames recycle it.
  FramePool::drain();
  const auto before = FramePool::stats();
  Engine eng;
  // Sequential spawn/join churn: each child frame is freed before the
  // next is allocated, so later children must recycle earlier frames.
  eng.spawn([](Engine& e) -> Task<void> {
    for (int i = 0; i < 64; ++i) {
      auto h = e.spawn([](Engine& e2) -> Task<void> {
        co_await e2.delay(1e-6);
      }(e));
      co_await h.join();
    }
  }(eng));
  eng.run();
  const auto after = FramePool::stats();
  EXPECT_GT(after.allocs, before.allocs);
  EXPECT_GT(after.reuses, before.reuses);
}

}  // namespace
}  // namespace simkit
