#pragma once
// Deterministic random number generation. Every stochastic component of the
// simulation (network jitter, OS noise, SIESTA burst sizes) draws from an Rng
// seeded from the experiment configuration, so runs are exactly repeatable.
//
// Every algorithm is written out here rather than taken from <random>: the
// standard fixes the engines' output, but not the algorithms of its
// distributions ([rand.dist.general]), so draws through them differ between
// libstdc++, libc++ and MSVC for the same seed. Here the integer stream,
// uniform() and uniform_int() are the same on every platform; normal(),
// lognormal() and exponential() still pass through libm's log, exp and
// sqrt, which libraries do not promise to round alike (DESIGN.md §5).
// hpcslint's `rand` rule keeps <random> engines and distributions out of
// the rest of the tree.

#include <cmath>
#include <cstdint>

namespace hpcs {

/// Seeded pseudo-random source: xoshiro256** 1.0 (Blackman & Vigna, 2018)
/// with its state expanded from the seed by splitmix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 (Steele, Lea & Flood 2014): one 64-bit seed becomes four
    // well-mixed state words; the sequence never yields an all-zero state.
    for (std::uint64_t& w : s_) {
      seed += 0x9e3779b97f4a7c15ull;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      w = z ^ (z >> 31);
    }
  }

  /// Next 64 raw bits (xoshiro256**).
  [[nodiscard]] std::uint64_t next_u64() {
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

  /// Uniform in [0, 1): the top 53 bits of one draw, scaled by 2^-53.
  [[nodiscard]] double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive (lo <= hi). Draws below 2^64 mod n
  /// are rejected, so every value is equally likely.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t n = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    std::uint64_t r = next_u64();
    if (n != 0) {  // n == 0: the full 64-bit range, every draw is in it
      const std::uint64_t threshold = (0 - n) % n;
      while (r < threshold) r = next_u64();
      r %= n;
    }
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r);
  }

  /// Exponential with the given mean (> 0), by inversion: -mean * ln(1 - u).
  [[nodiscard]] double exponential(double mean) { return -mean * std::log(1.0 - uniform()); }

  /// Log-normal parameterized by the mean and sigma of the underlying normal.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::exp(mu + sigma * standard_normal());
  }

  /// Normal (Gaussian).
  [[nodiscard]] double normal(double mean, double stddev) {
    return mean + stddev * standard_normal();
  }

  /// Derive an independent child stream; used to give each task its own
  /// stream so adding a task does not perturb the draws of the others.
  [[nodiscard]] Rng fork() { return Rng(next_u64() ^ 0x9e3779b97f4a7c15ull); }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  /// N(0, 1) by Marsaglia's polar method. Each accepted point yields two
  /// independent values; the second is kept for the next call.
  double standard_normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = 2.0 * uniform() - 1.0;
      v = 2.0 * uniform() - 1.0;
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * f;
    has_spare_ = true;
    return u * f;
  }

  std::uint64_t s_[4] = {};
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace hpcs
