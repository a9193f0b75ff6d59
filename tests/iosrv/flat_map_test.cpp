// Tests for the open-addressing table behind the servers' block state:
// probe runs that wrap past the end of the slot array and lose their
// head, growth, clear-and-reuse, iteration, and a seeded differential
// run against std::unordered_map.
#include "iosrv/flat_map.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <random>
#include <unordered_map>
#include <vector>

#include "iosrv/cache_policy.hpp"

namespace {

// Keys 100h .. 100h + 99 share home slot h (mod the slot count), so a
// test can build probe runs by hand.
struct HundredsHash {
  std::size_t operator()(std::uint64_t k) const noexcept { return k / 100; }
};

// Every key lands in one of four home slots: long, wrapping runs.
struct FourHomesHash {
  std::size_t operator()(std::uint64_t k) const noexcept { return k % 4; }
};

TEST(FlatMap, AllocatesOnFirstInsert) {
  iosrv::FlatMap<std::uint64_t, int, HundredsHash> m;
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_FALSE(m.erase(7));
  m.clear();
  EXPECT_EQ(m.capacity(), 0u);
  EXPECT_TRUE(m.insert(7, 1));
  EXPECT_EQ(m.capacity(), 8u);
}

// Three keys homed at the last of eight slots fill slots 7, 0 and 1; a
// key homed at slot 0 then sits in slot 2.  Erasing the run's head must
// shift the rest back so every key is still found and the wrapped key
// homed at 0 still is too.
TEST(FlatMap, WrappedProbeRunSurvivesEraseOfItsHead) {
  iosrv::FlatMap<std::uint64_t, int, HundredsHash> m;
  ASSERT_TRUE(m.insert(700, 1));
  ASSERT_TRUE(m.insert(701, 2));
  ASSERT_TRUE(m.insert(702, 3));
  ASSERT_TRUE(m.insert(0, 4));
  ASSERT_EQ(m.capacity(), 8u);  // no growth: the run really wraps

  EXPECT_TRUE(m.erase(700));
  EXPECT_EQ(m.find(700), nullptr);
  ASSERT_NE(m.find(701), nullptr);
  EXPECT_EQ(*m.find(701), 2);
  ASSERT_NE(m.find(702), nullptr);
  EXPECT_EQ(*m.find(702), 3);
  ASSERT_NE(m.find(0), nullptr);
  EXPECT_EQ(*m.find(0), 4);
  EXPECT_EQ(m.size(), 3u);

  // Erase from the middle of what is left, then the key past the wrap.
  EXPECT_TRUE(m.erase(702));
  EXPECT_EQ(*m.find(701), 2);
  EXPECT_EQ(*m.find(0), 4);
  EXPECT_TRUE(m.erase(0));
  EXPECT_EQ(*m.find(701), 2);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.erase(0));
}

TEST(FlatMap, GrowthKeepsEveryEntry) {
  iosrv::FlatMap<iosrv::BlockKey, std::uint64_t, iosrv::BlockKeyHash> m;
  constexpr std::uint64_t kKeys = 5000;
  std::size_t last_capacity = 0;
  int growths = 0;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(m.insert({i % 7, i}, i * 3));
    if (m.capacity() != last_capacity) {
      ++growths;
      last_capacity = m.capacity();
    }
  }
  EXPECT_GT(growths, 5);
  EXPECT_EQ(m.size(), kKeys);
  EXPECT_GE(m.capacity(), 2 * kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const std::uint64_t* v = m.find({i % 7, i});
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i * 3);
  }
  EXPECT_FALSE(m.insert({0, 0}, 1));  // present: left as it was
  EXPECT_EQ(*m.find({0, 0}), 0u);
}

TEST(FlatMap, ClearThenReuse) {
  iosrv::FlatMap<std::uint64_t, int, FourHomesHash> m;
  for (std::uint64_t k = 0; k < 40; ++k) m.insert(k, static_cast<int>(k));
  const std::size_t cap = m.capacity();
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.capacity(), cap);  // storage kept
  for (std::uint64_t k = 0; k < 40; ++k) EXPECT_EQ(m.find(k), nullptr);
  int visited = 0;
  m.for_each([&visited](std::uint64_t, int) { ++visited; });
  EXPECT_EQ(visited, 0);

  for (std::uint64_t k = 100; k < 120; ++k) {
    EXPECT_TRUE(m.insert(k, static_cast<int>(k) + 1));
  }
  EXPECT_EQ(m.size(), 20u);
  for (std::uint64_t k = 100; k < 120; ++k) {
    ASSERT_NE(m.find(k), nullptr);
    EXPECT_EQ(*m.find(k), static_cast<int>(k) + 1);
  }
  EXPECT_EQ(m.find(5), nullptr);
}

TEST(FlatMap, IterationVisitsEachLiveKeyOnce) {
  iosrv::FlatSet<std::uint64_t, FourHomesHash> s;
  for (std::uint64_t k = 0; k < 64; ++k) s.insert(k);
  for (std::uint64_t k = 0; k < 64; k += 3) s.erase(k);
  std::vector<std::uint64_t> seen;
  s.for_each([&seen](std::uint64_t k, iosrv::NoValue) { seen.push_back(k); });
  std::sort(seen.begin(), seen.end());
  std::vector<std::uint64_t> want;
  for (std::uint64_t k = 0; k < 64; ++k) {
    if (k % 3 != 0) want.push_back(k);
  }
  EXPECT_EQ(seen, want);
  EXPECT_EQ(s.size(), want.size());
}

// Random inserts, lookups, updates through find(), erases and clears
// over a key space small enough that every key is hit many times,
// against std::unordered_map.
template <class Hash>
void differential(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  iosrv::FlatMap<std::uint64_t, std::uint64_t, Hash> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  constexpr std::uint64_t kKeySpace = 48;
  for (int op = 0; op < 50000; ++op) {
    const std::uint64_t k = rng() % kKeySpace;
    const std::uint64_t v = rng();
    switch (rng() % 16) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
        EXPECT_EQ(flat.insert(k, v), ref.emplace(k, v).second);
        break;
      case 5:
      case 6:
        if (std::uint64_t* stored = flat.find(k)) *stored = v;
        if (const auto it = ref.find(k); it != ref.end()) it->second = v;
        break;
      case 7:
      case 8:
      case 9:
      case 10:
        EXPECT_EQ(flat.erase(k), ref.erase(k) == 1);
        break;
      case 11:
        if (rng() % 64 == 0) {
          flat.clear();
          ref.clear();
        }
        break;
      default: {
        const std::uint64_t* got = flat.find(k);
        const auto want = ref.find(k);
        ASSERT_EQ(got != nullptr, want != ref.end()) << "op " << op;
        if (got) {
          EXPECT_EQ(*got, want->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size()) << "op " << op;
  }
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    EXPECT_EQ(flat.contains(k), ref.count(k) == 1) << k;
  }
  std::size_t visited = 0;
  flat.for_each([&](std::uint64_t k, std::uint64_t v) {
    ++visited;
    const auto want = ref.find(k);
    ASSERT_NE(want, ref.end());
    EXPECT_EQ(v, want->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomOps) {
  differential<std::hash<std::uint64_t>>(42);
  differential<FourHomesHash>(7);
  differential<HundredsHash>(1234);
}

}  // namespace
