// simkit/rng.hpp — deterministic pseudo-random numbers (xoshiro256**).
//
// Simulations must replay bit-identically, so all stochastic inputs
// (integral evaluation costs, disk placement jitter, ...) draw from
// explicitly seeded streams.  xoshiro256** is fast, high quality, and
// trivially splittable via long-jumpable seeding with splitmix64.
#pragma once

#include <cstdint>

namespace simkit {

/// splitmix64 — used to expand a single seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5EEDF00Du) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
  }

  /// Derive an independent stream (e.g. one per simulated rank) from the
  /// current state; the parent's own stream is not advanced.
  Rng split(std::uint64_t stream_id) const {
    return Rng(s_[0] ^ (0x9E3779B97f4A7C15ULL * (stream_id + 1)));
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface.
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform double in [0, 1).
  double uniform() { return (next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_int(std::uint64_t n) {
    // Lemire's unbiased bounded generation.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t t = (0 - n) % n;
      while (lo < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Exponentially distributed with the given mean (>0).
  double exponential(double mean);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4] = {};
};

}  // namespace simkit
