// hpcs::Rng pins its algorithms: xoshiro256** seeded by splitmix64, a 53-bit
// uniform, rejection-sampled integers, inversion for the exponential and
// Marsaglia's polar method for the normal. The known answers below were
// cross-checked against an independent implementation of the published
// algorithms. Integer-derived outputs must match bit for bit on every
// platform; the libm-fed ones (log, exp, sqrt) within a few ulp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace hpcs {
namespace {

constexpr std::uint64_t kSeed = 42;

TEST(Rng, RawStreamKnownAnswers) {
  Rng r(kSeed);
  EXPECT_EQ(r.next_u64(), 1546998764402558742ull);
  EXPECT_EQ(r.next_u64(), 6990951692964543102ull);
  EXPECT_EQ(r.next_u64(), 12544586762248559009ull);
  EXPECT_EQ(r.next_u64(), 17057574109182124193ull);
}

TEST(Rng, UniformKnownAnswers) {
  Rng r(kSeed);
  EXPECT_EQ(r.uniform(), 0.083862971059882163);
  EXPECT_EQ(r.uniform(), 0.37898025066266861);
  EXPECT_EQ(r.uniform(), 0.68004341102813937);
  Rng s(kSeed);
  EXPECT_EQ(s.uniform(-2.0, 3.0), -1.5806851447005892);
  EXPECT_EQ(s.uniform(-2.0, 3.0), -0.10509874668665686);
  EXPECT_EQ(s.uniform(-2.0, 3.0), 1.4002170551406969);
}

TEST(Rng, UniformIntKnownAnswers) {
  Rng r(kSeed);
  const std::vector<std::int64_t> want = {-1, 3, 1, -3, -1};
  for (const std::int64_t w : want) EXPECT_EQ(r.uniform_int(-3, 9), w);
  Rng full(7);
  EXPECT_EQ(full.uniform_int(std::numeric_limits<std::int64_t>::min(),
                             std::numeric_limits<std::int64_t>::max()),
            3699983033973700186);
}

TEST(Rng, LibmFedDistributionsKnownAnswers) {
  Rng e(kSeed);
  EXPECT_DOUBLE_EQ(e.exponential(2.5), 0.21897332645854392);
  EXPECT_DOUBLE_EQ(e.exponential(2.5), 1.1909809876969311);
  EXPECT_DOUBLE_EQ(e.exponential(2.5), 2.8489248796346938);
  // The polar method's second value is the next call's result.
  Rng n(kSeed);
  EXPECT_DOUBLE_EQ(n.normal(1.0, 2.0), -0.45243827648957136);
  EXPECT_DOUBLE_EQ(n.normal(1.0, 2.0), 0.5776061635360803);
  EXPECT_DOUBLE_EQ(n.normal(1.0, 2.0), 1.4432454030071866);
  EXPECT_DOUBLE_EQ(n.normal(1.0, 2.0), 2.0455433755120289);
  Rng l(kSeed);
  EXPECT_DOUBLE_EQ(l.lognormal(0.5, 0.25), 1.3749882909902249);
  EXPECT_DOUBLE_EQ(l.lognormal(0.5, 0.25), 1.5639282583362129);
  EXPECT_DOUBLE_EQ(l.lognormal(0.5, 0.25), 1.7426477906950517);
  EXPECT_DOUBLE_EQ(l.lognormal(0.5, 0.25), 1.8789120676904878);
}

TEST(Rng, ForkKnownAnswers) {
  Rng root(kSeed);
  Rng a = root.fork();
  Rng b = root.fork();
  EXPECT_EQ(a.next_u64(), 957964351160264821ull);
  EXPECT_EQ(b.next_u64(), 16889223400634718559ull);
  // A fork consumes exactly one draw of the parent.
  EXPECT_EQ(root.next_u64(), 12544586762248559009ull);
}

/// Mean and variance of `n` draws.
template <typename Draw>
std::pair<double, double> moments(int n, Draw draw) {
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = draw();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  return {mean, sq / n - mean * mean};
}

constexpr int kDraws = 100000;

TEST(Rng, UniformMoments) {
  Rng r(1);
  const auto [mean, var] = moments(kDraws, [&] { return r.uniform(); });
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.002);
  Rng s(2);
  double lo = 1.0;
  double hi = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double u = s.uniform();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_GE(lo, 0.0);
  EXPECT_LT(hi, 1.0);
}

TEST(Rng, UniformIntMomentsAndRange) {
  Rng r(3);
  std::vector<int> count(13, 0);
  const auto [mean, var] = moments(kDraws, [&] {
    const std::int64_t v = r.uniform_int(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
    ++count[static_cast<std::size_t>(v + 3)];
    return static_cast<double>(v);
  });
  EXPECT_NEAR(mean, 3.0, 0.05);
  EXPECT_NEAR(var, (13.0 * 13.0 - 1.0) / 12.0, 0.3);
  for (const int c : count) EXPECT_NEAR(c, kDraws / 13.0, 400.0);
}

TEST(Rng, ExponentialMoments) {
  Rng r(4);
  const auto [mean, var] = moments(kDraws, [&] { return r.exponential(2.5); });
  EXPECT_NEAR(mean, 2.5, 0.05);
  EXPECT_NEAR(var, 6.25, 0.3);
}

TEST(Rng, NormalMoments) {
  Rng r(5);
  const auto [mean, var] = moments(kDraws, [&] { return r.normal(1.0, 2.0); });
  EXPECT_NEAR(mean, 1.0, 0.03);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, LognormalMoments) {
  Rng r(6);
  const double mu = 0.5;
  const double sigma = 0.5;
  const auto [mean, var] = moments(kDraws, [&] { return r.lognormal(mu, sigma); });
  const double want_mean = std::exp(mu + sigma * sigma / 2.0);
  const double want_var = (std::exp(sigma * sigma) - 1.0) * want_mean * want_mean;
  EXPECT_NEAR(mean, want_mean, 0.01 * want_mean);
  EXPECT_NEAR(var, want_var, 0.05 * want_var);
}

}  // namespace
}  // namespace hpcs
