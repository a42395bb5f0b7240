// Gaussian noise of the AWGN channel: the stream definition, its scalar
// reference and the per-tier block kernels (noise_{sse,avx2,avx512}.cc,
// one translation unit per tier with per-file ISA flags), reached only
// through add_noise's runtime dispatch.
//
// Stream. Sample n of a stream (n counts from 0 over every apply call)
// draws two 32-bit words, w = 2n and 2n + 1, from a counter-based hash
// keyed per stream and per epoch of 2^31 samples (noise_key), and turns
// them into one complex standard-normal value with a float Box–Muller:
//  * radius: u1 = (1 + top 24 bits of word 2n) * 2^-24 in (0, 1],
//    r = sqrt(-2 ln u1) with a fixed-polynomial ln (noise_log), so
//    r <= sqrt(48 ln 2) ~ 5.77;
//  * angle: the top 24 bits of word 2n + 1 pick one of 2^24 equally
//    spaced angles; the top 3 of them select the octant exactly (integer
//    fold, swap and sign flips) and the other 21 bits feed fixed
//    sin/cos polynomials on [0, pi/4] (noise_sincos).
// The sample adds sigma * r * (cos, sin) to the channel input.
//
// Exactness contract (DESIGN.md §5k, TESTING.md "Channel noise"): every
// SIMD kernel runs the reference's IEEE float operation sequence per
// lane — the same operations in the same order, no FMA contraction
// (-ffp-contract=off), int->float conversions only of integers up to
// 2^24 (exact) and a correctly rounded sqrt — so for a given key and
// sample index the noise is bit-identical at every tier and on every
// host. Lanes carry independent samples; the kernels only choose which
// sample each lane computes (lane_words) so that interleaving the real
// and imaginary registers needs no cross-lane shuffle.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "phy/ofdm/fft.h"

namespace vran::phy::simd {

/// Round keys of one stream epoch.
struct NoiseKey {
  std::uint32_t k0 = 0;
  std::uint32_t k1 = 0;
};

/// Samples per key epoch: the 32-bit word counter covers 2^32 words.
inline constexpr std::uint64_t kNoiseEpochSamples = std::uint64_t{1} << 31;

/// Keys of epoch `epoch` (sample n lies in epoch n >> 31) of the stream
/// whose key is `stream_key`.
inline NoiseKey noise_key(std::uint64_t stream_key, std::uint64_t epoch) {
  const std::uint64_t k = splitmix64(stream_key + epoch);
  return {static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k >> 32)};
}

/// Three xorshift-multiply rounds, the epoch key added before the first
/// and mixed in after it. A bijection of `w` for fixed keys.
inline constexpr std::uint32_t kNoiseMul[3] = {0xED5AD4BBu, 0xAC4C1B51u,
                                               0x31848BABu};

inline std::uint32_t noise_word(std::uint32_t w, NoiseKey k) {
  std::uint32_t x = w + k.k0;
  x = (x ^ (x >> 17)) * kNoiseMul[0];
  x ^= k.k1;
  x = (x ^ (x >> 11)) * kNoiseMul[1];
  x = (x ^ (x >> 15)) * kNoiseMul[2];
  return x ^ (x >> 14);
}

// Polynomial constants (Cephes logf / sinf / cosf minimax fits). ln 2 is
// split so that e * kLn2Hi is exact for the exponents here (|e| <= 25).
inline constexpr float kNoiseLog[9] = {
    7.0376836292e-2f,  -1.1514610310e-1f, 1.1676998740e-1f,
    -1.2420140846e-1f, 1.4249322787e-1f,  -1.6668057665e-1f,
    2.0000714765e-1f,  -2.4999993993e-1f, 3.3333331174e-1f};
inline constexpr float kNoiseLn2Lo = -2.12194440e-4f;
inline constexpr float kNoiseLn2Hi = 0.693359375f;
inline constexpr float kNoiseSqrt2 = 1.41421356f;
inline constexpr float kNoiseSin[3] = {-1.9515295891e-4f, 8.3321608736e-3f,
                                       -1.6666654611e-1f};
inline constexpr float kNoiseCos[3] = {2.443315711809948e-5f,
                                       -1.388731625493765e-3f,
                                       4.166664568298827e-2f};
/// pi / 2^23: the angle of one step of the 22-bit in-quadrant index.
inline constexpr float kNoiseAngleStep =
    static_cast<float>(3.14159265358979323846 / 8388608.0);

/// ln u for u = ((a >> 8) + 1) * 2^-24 in (0, 1]: exponent and mantissa
/// from the float bits of the exact integer (a >> 8) + 1, mantissa folded
/// into [sqrt(1/2), sqrt(2)], then x - x^2/2 + x^3 P(x) at x = m - 1.
inline float noise_log(std::uint32_t a) {
  const float f = static_cast<float>(static_cast<std::int32_t>((a >> 8) + 1));
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(f);
  std::int32_t e = static_cast<std::int32_t>(bits >> 23) - (127 + 24);
  float m = std::bit_cast<float>((bits & 0x7FFFFFu) | 0x3F800000u);
  const bool big = m > kNoiseSqrt2;
  m = big ? m * 0.5f : m;
  e += big ? 1 : 0;
  const float x = m - 1.0f;
  const float z = x * x;
  float y = kNoiseLog[0];
  for (int i = 1; i < 9; ++i) y = y * x + kNoiseLog[i];
  y = y * x * z;
  const float fe = static_cast<float>(e);
  y = y + fe * kNoiseLn2Lo;
  y = y - 0.5f * z;
  return (x + y) + fe * kNoiseLn2Hi;
}

/// cos and sin of angle 2 pi (b >> 8) / 2^24. Bits 31 and 30 of `b` are
/// the quadrant q, bit 29 the octant half, bits 8-28 the position in it;
/// the upper half of a quadrant folds to j = 2^22 - index, so the
/// polynomials only see [0, pi/4]. cos and sin swap when bit 29 ^ bit 30
/// is set; cos is negative in quadrants 1 and 2 (bit 31 ^ bit 30), sin
/// in quadrants 2 and 3 (bit 31), applied by flipping the sign bit.
inline std::pair<float, float> noise_sincos(std::uint32_t b) {
  const std::uint32_t index = (b >> 8) & 0x3FFFFFu;
  const bool fold = ((b >> 29) & 1u) != 0;
  const auto j =
      static_cast<std::int32_t>(fold ? 0x400000u - index : index);
  const float x = static_cast<float>(j) * kNoiseAngleStep;
  const float z = x * x;
  float s = (kNoiseSin[0] * z + kNoiseSin[1]) * z + kNoiseSin[2];
  s = s * z * x + x;
  float c = (kNoiseCos[0] * z + kNoiseCos[1]) * z + kNoiseCos[2];
  c = c * z * z - 0.5f * z + 1.0f;
  // Bit 30 of `flips` is bit 30 ^ bit 29 of b, bit 31 is bit 31 ^ bit 30.
  const std::uint32_t flips = b ^ (b << 1);
  const bool swap = ((flips >> 30) & 1u) != 0;
  const auto negate = [](float v, std::uint32_t sign_bit) {
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) ^ sign_bit);
  };
  return {negate(swap ? s : c, flips & 0x80000000u),
          negate(swap ? c : s, b & 0x80000000u)};
}

/// The scalar reference: add sample `w / 2`'s noise, scaled by `sigma`,
/// to `x` (`w` is the sample's even word index modulo 2^32).
inline void add_noise_sample(Cf& x, std::uint32_t w, NoiseKey k,
                             float sigma) {
  const float r = std::sqrt(-2.0f * noise_log(noise_word(w, k)));
  const auto [c, s] = noise_sincos(noise_word(w + 1, k));
  const float rs = r * sigma;
  x = Cf(x.real() + rs * c, x.imag() + rs * s);
}

/// Add noise to `n` samples whose first has even word index `w0`, all
/// within one epoch; a partial last register runs over a padded copy.
void add_noise_sse(Cf* x, std::size_t n, std::uint32_t w0, NoiseKey k,
                   float sigma);
void add_noise_avx2(Cf* x, std::size_t n, std::uint32_t w0, NoiseKey k,
                    float sigma);
void add_noise_avx512(Cf* x, std::size_t n, std::uint32_t w0, NoiseKey k,
                      float sigma);

/// x[i] += sigma * (noise sample first + i of stream `stream_key`) for
/// i < n, on tier `isa` (clamped by the caller to what the CPU runs),
/// one kernel call per epoch.
void add_noise(Cf* x, std::size_t n, float sigma, std::uint64_t stream_key,
               std::uint64_t first, IsaLevel isa);

}  // namespace vran::phy::simd
