// Tests for the deterministic RNG.
#include "simkit/rng.hpp"

#include <gtest/gtest.h>

#include <initializer_list>
#include <cstdint>
#include <vector>

namespace simkit {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

// The stream itself is pinned: every seeded fault plan, arrival stream
// and Markov walk replays from it, so a change to any of these values
// moves simulated output.
TEST(Rng, SeedFortyTwoStreamIsPinned) {
  Rng r(42);
  const std::uint64_t expect[] = {
      0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
      0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL, 0xc2e96e726e97647eULL,
      0x9556615f775fbc3dULL};
  for (const std::uint64_t v : expect) EXPECT_EQ(r.next(), v);
}

// A child derives from the parent's state after the draws taken so far:
// after 5 draws and after 9.
TEST(Rng, SplitAfterDrawsIsPinned) {
  Rng a(42);
  for (int i = 0; i < 5; ++i) a.next();
  Rng a3 = a.split(3);
  for (const std::uint64_t v :
       {0xa190cedcf89f7b93ULL, 0xc34502956d5393d6ULL, 0xb7a902b5026d5f3cULL,
        0xfad40bffc9f26babULL}) {
    EXPECT_EQ(a3.next(), v);
  }
  EXPECT_EQ(a.next(), 0xc50da53101795238ULL);  // the parent's sixth draw

  Rng b(42);
  for (int i = 0; i < 9; ++i) b.next();
  Rng b3 = b.split(3);
  for (const std::uint64_t v :
       {0x50200033fddfdd47ULL, 0x46a0f9483e401873ULL, 0x2e7955274d4a2c19ULL,
        0x5a7af2608829535bULL}) {
    EXPECT_EQ(b3.next(), v);
  }
  EXPECT_EQ(b.next(), 0x9556615f775fbc3dULL);  // the parent's tenth draw
}

TEST(Rng, BoundedAndExponentialDrawsArePinned) {
  Rng u(42);
  for (const std::uint64_t v : {0u, 3u, 6u, 9u, 9u, 7u, 7u, 8u}) {
    EXPECT_EQ(u.uniform_int(10), v);
  }
  for (const std::uint64_t v : {761376u, 583351u, 682454u, 290678u}) {
    EXPECT_EQ(u.uniform_int(1000003), v);
  }
  Rng e(42);
  for (const double v : {7.4357133271757689, 2.9108135529807342,
                         1.1567959293071726, 0.23488064273166498}) {
    EXPECT_DOUBLE_EQ(e.exponential(3.0), v);
  }
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(42);
  Rng c1 = parent.split(0);
  Rng c2 = parent.split(1);
  Rng c1_again = parent.split(0);
  EXPECT_NE(c1.next(), c2.next());
  Rng c1_ref = Rng(42).split(0);
  EXPECT_EQ(c1_ref.next(), c1_again.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsAboutHalf) {
  Rng r(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsRespected) {
  Rng r(9);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto v = r.uniform_int(10);
    ASSERT_LT(v, 10u);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng r(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(Rng, SplitDoesNotPerturbParent) {
  Rng a(4242), b(4242);
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 100; ++i) expect.push_back(b.next());
  std::vector<std::uint64_t> got;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 == 0) a.split(static_cast<std::uint64_t>(i));
    got.push_back(a.next());
  }
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace simkit
