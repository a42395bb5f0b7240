// AWGN channel noise contract (TESTING.md "Channel noise"):
//   1. tier identity — every SIMD tier adds the scalar reference's noise
//      bits, for lengths that leave a partial register, for a stream
//      split over several apply calls and across a key epoch boundary;
//   2. the reference's fixed polynomials, checked exhaustively over all
//      2^24 radius and all 2^24 angle inputs, and the exact moments of
//      the resulting discrete distribution;
//   3. the distribution of 4 M complex samples at a fixed seed, with
//      every bound derived from sampling error.
// The whole binary also re-runs under VRAN_FORCE_ISA=<tier> (CTest
// variants), so the default-dispatch path is pinned per tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/cpu_features.h"
#include "phy/channel/channel.h"
#include "phy/channel/noise_simd.h"

namespace vran::phy {
namespace {

constexpr IsaLevel kTiers[] = {IsaLevel::kScalar, IsaLevel::kSse41,
                               IsaLevel::kAvx2, IsaLevel::kAvx512};

/// Nonzero input, so the test sees the add as well as the noise.
std::vector<Cf> ramp(std::size_t n) {
  std::vector<Cf> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = Cf(0.001f * static_cast<float>(i % 97) - 0.05f,
              0.05f - 0.002f * static_cast<float>(i % 31));
  }
  return v;
}

bool same_bits(const std::vector<Cf>& a, const std::vector<Cf>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Cf)) == 0;
}

TEST(ChannelNoise, EveryTierAddsTheScalarReferenceBits) {
  // 1..17 straddle the SSE (4), AVX2 (8) and AVX-512 (16) registers;
  // 6576 is one ul-bulk UE subframe (12 OFDM symbols of 548 samples).
  for (const std::size_t n :
       {1u, 3u, 4u, 7u, 15u, 16u, 17u, 33u, 100u, 6576u, 6577u}) {
    std::vector<Cf> ref = ramp(n);
    AwgnChannel(3.0, 42, IsaLevel::kScalar).apply(std::span<Cf>(ref));
    for (const IsaLevel isa : kTiers) {
      if (isa > best_isa()) continue;
      std::vector<Cf> got = ramp(n);
      AwgnChannel(3.0, 42, isa).apply(std::span<Cf>(got));
      EXPECT_TRUE(same_bits(got, ref)) << isa_name(isa) << " n " << n;
    }
  }
}

TEST(ChannelNoise, SplitStreamMatchesOneCallAtEveryTier) {
  // The stream continues across apply calls: chunks of odd sizes (each
  // leaving a partial register) read exactly what one call reads.
  const std::size_t chunks[] = {7, 1, 16, 33, 5, 100, 19};
  std::size_t total = 0;
  for (const auto c : chunks) total += c;
  std::vector<Cf> ref = ramp(total);
  AwgnChannel(10.0, 7, IsaLevel::kScalar).apply(std::span<Cf>(ref));
  for (const IsaLevel isa : kTiers) {
    if (isa > best_isa()) continue;
    std::vector<Cf> got = ramp(total);
    AwgnChannel ch(10.0, 7, isa);
    std::size_t at = 0;
    for (const auto c : chunks) {
      ch.apply(std::span<Cf>(got).subspan(at, c));
      at += c;
    }
    EXPECT_TRUE(same_bits(got, ref)) << isa_name(isa);
  }
}

TEST(ChannelNoise, EpochBoundaryMatchesPerSampleReference) {
  // A call that crosses sample 2^31 switches keys mid-call; every sample
  // must still be the reference evaluated at its own index.
  const std::uint64_t key = 0x1234'5678'9ABC'DEF0ull;
  const std::uint64_t first = simd::kNoiseEpochSamples - 21;
  const std::size_t n = 50;
  std::vector<Cf> ref = ramp(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t s = first + i;
    simd::add_noise_sample(ref[i], static_cast<std::uint32_t>(s << 1),
                           simd::noise_key(key, s / simd::kNoiseEpochSamples),
                           0.5f);
  }
  for (const IsaLevel isa : kTiers) {
    if (isa > best_isa()) continue;
    std::vector<Cf> got = ramp(n);
    simd::add_noise(got.data(), n, 0.5f, key, first, isa);
    EXPECT_TRUE(same_bits(got, ref)) << isa_name(isa);
  }
}

TEST(ChannelNoise, ReferencePolynomialsAndExactMoments) {
  // Every possible radius: ln u to within half a float ulp at |ln u| =
  // 16.6 (2^-20), -2 ln u never negative, r <= sqrt(48 ln 2).
  double er2 = 0, er4 = 0, max_ln_err = 0;
  float max_r = 0;
  for (std::uint32_t a = 0; a < (1u << 24); ++a) {
    const float ln = simd::noise_log(a << 8);
    max_ln_err = std::max(
        max_ln_err, std::fabs(double(ln) - std::log((a + 1.0) / 16777216.0)));
    ASSERT_GE(-2.0f * ln, 0.0f) << a;
    const double r2 = double(std::sqrt(-2.0f * ln)) * std::sqrt(-2.0f * ln);
    max_r = std::max(max_r, std::sqrt(-2.0f * ln));
    er2 += r2;
    er4 += r2 * r2;
  }
  EXPECT_LE(max_ln_err, 0x1p-20);
  EXPECT_LE(max_r, std::sqrt(48.0 * std::log(2.0)) * (1 + 1e-6));
  // Every possible angle: cos and sin to within 2 ulp at 1 (2^-22).
  double ec2 = 0, ec4 = 0, ec = 0, es = 0, ecs = 0, max_trig_err = 0;
  for (std::uint32_t b = 0; b < (1u << 24); ++b) {
    const auto [c, s] = simd::noise_sincos(b << 8);
    const double th = 2 * 3.14159265358979323846 * b / 16777216.0;
    max_trig_err = std::max({max_trig_err, std::fabs(c - std::cos(th)),
                             std::fabs(s - std::sin(th))});
    ec += c;
    es += s;
    ecs += double(c) * s;
    ec2 += double(c) * c;
    ec4 += double(c) * c * c * c;
  }
  EXPECT_LE(max_trig_err, 0x1p-22);
  // Radius and angle come from independent words, so the moments of one
  // component are products of these exhaustive averages: the discrete
  // distribution itself has unit variance and kurtosis 3 to 1e-5.
  const double m = 1.0 / 16777216.0;
  EXPECT_NEAR(ec * m, 0.0, 1e-9);
  EXPECT_NEAR(es * m, 0.0, 1e-9);
  EXPECT_NEAR(ecs * m, 0.0, 1e-9);
  const double var = er2 * m * ec2 * m;
  EXPECT_NEAR(var, 1.0, 1e-5);
  EXPECT_NEAR(er4 * m * ec4 * m / (var * var), 3.0, 1e-4);
}

TEST(ChannelNoise, DistributionAtFixedSeed) {
  // 2^22 complex samples of the channel at the default tier, drawn in
  // ul-bulk subframes of 6576 samples like the pipeline draws them, and
  // normalized by sigma: N = 2^23 real values, M = 2^22 pairs.
  const double snr_db = 0.0;
  const std::size_t m_pairs = std::size_t{1} << 22;
  AwgnChannel ch(snr_db, 2024);
  std::vector<Cf> x(m_pairs);
  for (std::size_t at = 0; at < m_pairs; at += 6576) {
    ch.apply(std::span<Cf>(x).subspan(at, std::min<std::size_t>(
                                              6576, m_pairs - at)));
  }
  const double inv_sigma = 1.0 / std::sqrt(std::pow(10.0, -snr_db / 10) / 2);
  const double n = 2.0 * double(m_pairs);
  double s1 = 0, s2 = 0, s4 = 0, iq = 0, lag_ii = 0, lag_qq = 0, lag_iq = 0,
         lag_qi = 0, max_abs = 0;
  double beyond[6] = {};
  for (std::size_t t = 0; t < m_pairs; ++t) {
    const double i = x[t].real() * inv_sigma;
    const double q = x[t].imag() * inv_sigma;
    for (const double v : {i, q}) {
      s1 += v;
      s2 += v * v;
      s4 += v * v * v * v;
      max_abs = std::max(max_abs, std::fabs(v));
      for (int k = 1; k <= 5; ++k) beyond[k] += std::fabs(v) > k;
    }
    iq += i * q;
    if (t + 1 < m_pairs) {
      const double i1 = x[t + 1].real() * inv_sigma;
      const double q1 = x[t + 1].imag() * inv_sigma;
      lag_ii += i * i1;
      lag_qq += q * q1;
      lag_iq += i * q1;
      lag_qi += q * i1;
    }
  }
  // Bounds: five standard errors of each statistic for N iid unit
  // normals (the exhaustive test shows the discrete law's own variance
  // and kurtosis sit within 1e-5 and 1e-4 of the normal's), plus the
  // truncation allowance below. A correct generator fails one of these
  // thirteen checks with probability about 13 * 5.7e-7.
  //   mean:      SE = 1/sqrt(N)                 = 3.5e-4
  //   variance:  SE = sqrt(2/N)                 = 4.9e-4 -> 0.2 % is 4.1 SE
  //   kurtosis:  SE = sqrt(24/N)                = 1.7e-3
  //   corr:      SE = 1/sqrt(M)                 = 4.9e-4 (I/Q and lag 1)
  const double mean = s1 / n;
  const double var = s2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 5 / std::sqrt(n));
  EXPECT_NEAR(var, 1.0, 0.002);
  EXPECT_NEAR((s4 / n) / (var * var), 3.0, 5 * std::sqrt(24 / n));
  const double corr_bound = 5 / std::sqrt(double(m_pairs) - 1);
  EXPECT_NEAR(iq / double(m_pairs), 0.0, corr_bound);
  EXPECT_NEAR(lag_ii / double(m_pairs - 1), 0.0, corr_bound);
  EXPECT_NEAR(lag_qq / double(m_pairs - 1), 0.0, corr_bound);
  EXPECT_NEAR(lag_iq / double(m_pairs - 1), 0.0, corr_bound);
  EXPECT_NEAR(lag_qi / double(m_pairs - 1), 0.0, corr_bound);
  // Tail shares: count of |x| > k against N * 2Q(k), SE of a binomial
  // count sqrt(N p (1 - p)). 24-bit uniforms cap r at sqrt(48 ln 2) =
  // 5.77, which removes at most P(r > 5.77) = 2^-24 of the pairs, i.e.
  // at most N * 2^-24 = 0.5 expected values beyond any k: one more count
  // of allowance. No value may lie beyond the cap.
  for (int k = 1; k <= 5; ++k) {
    const double p = std::erfc(k / std::sqrt(2.0));
    const double expected = n * p;
    EXPECT_NEAR(beyond[k], expected, 5 * std::sqrt(n * p * (1 - p)) + 1)
        << "beyond " << k << " sigma";
  }
  EXPECT_LE(max_abs, std::sqrt(48.0 * std::log(2.0)) * (1 + 1e-5));
}

TEST(ChannelNoise, SeedsAndCallsGiveFreshNoise) {
  // Consecutive calls continue the stream instead of repeating it, and a
  // different seed gives a different stream.
  std::vector<Cf> a(64), b(64), c(64);
  AwgnChannel ch(0.0, 5);
  ch.apply(std::span<Cf>(a));
  ch.apply(std::span<Cf>(b));
  AwgnChannel(0.0, 6).apply(std::span<Cf>(c));
  EXPECT_FALSE(same_bits(a, b));
  EXPECT_FALSE(same_bits(a, c));
}

}  // namespace
}  // namespace vran::phy
