// The one SIMD body of the channel noise kernels (noise_simd.h), written
// once over a per-tier Ops struct and instantiated in noise_sse.cc,
// noise_avx2.cc and noise_avx512.cc. Each float step mirrors the scalar
// reference's expression (noise_log, noise_sincos, add_noise_sample)
// operation for operation; include only from a translation unit built
// with -ffp-contract=off.
//
// Ops contract (one register = Ops::kLanes complex samples):
//   I, F, M        32-bit int / float registers and a lane mask
//   lane_words()   even word offset of each lane's sample
//   set1, set1f    broadcasts
//   add, sub, mul  32-bit integer lanes (mul keeps the low 32 bits)
//   xor_, and_, or_, srli<N>, slli<N>
//   cvt            int32 -> float (exact up to 2^24)
//   as_float, as_int   bit casts
//   addf, subf, mulf, sqrtf, xorf
//   gt(a, b)       mask of a > b
//   bit(x, b)      mask of (x & b) != 0, b a single bit
//   select(m, t, f), select_i(m, t, f)   m ? t : f
//   inc(e, m)      e + (m ? 1 : 0)
//   add_pairs(p, re, im)  p[2s] += re, p[2s + 1] += im for the register's
//                  samples s = 0..kLanes-1 in memory order
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "phy/channel/noise_simd.h"

namespace vran::phy::simd {

template <class V>
typename V::I noise_word_v(typename V::I w, typename V::I k0,
                           typename V::I k1) {
  auto x = V::add(w, k0);
  x = V::mul(V::xor_(x, V::template srli<17>(x)), V::set1(kNoiseMul[0]));
  x = V::xor_(x, k1);
  x = V::mul(V::xor_(x, V::template srli<11>(x)), V::set1(kNoiseMul[1]));
  x = V::mul(V::xor_(x, V::template srli<15>(x)), V::set1(kNoiseMul[2]));
  return V::xor_(x, V::template srli<14>(x));
}

template <class V>
typename V::F noise_log_v(typename V::I a) {
  using F = typename V::F;
  const F f = V::cvt(V::add(V::template srli<8>(a), V::set1(1)));
  const auto bits = V::as_int(f);
  auto e = V::sub(V::template srli<23>(bits), V::set1(127 + 24));
  F m = V::as_float(
      V::or_(V::and_(bits, V::set1(0x7FFFFFu)), V::set1(0x3F800000u)));
  const auto big = V::gt(m, V::set1f(kNoiseSqrt2));
  m = V::select(big, V::mulf(m, V::set1f(0.5f)), m);
  e = V::inc(e, big);
  const F x = V::subf(m, V::set1f(1.0f));
  const F z = V::mulf(x, x);
  F y = V::set1f(kNoiseLog[0]);
  for (int i = 1; i < 9; ++i) {
    y = V::addf(V::mulf(y, x), V::set1f(kNoiseLog[i]));
  }
  y = V::mulf(V::mulf(y, x), z);
  const F fe = V::cvt(e);
  y = V::addf(y, V::mulf(fe, V::set1f(kNoiseLn2Lo)));
  y = V::subf(y, V::mulf(V::set1f(0.5f), z));
  return V::addf(V::addf(x, y), V::mulf(fe, V::set1f(kNoiseLn2Hi)));
}

template <class V>
void noise_sincos_v(typename V::I b, typename V::F& cos_out,
                    typename V::F& sin_out) {
  using F = typename V::F;
  const auto index =
      V::and_(V::template srli<8>(b), V::set1(0x3FFFFFu));
  const auto j = V::select_i(V::bit(b, 1u << 29),
                             V::sub(V::set1(0x400000u), index), index);
  const F x = V::mulf(V::cvt(j), V::set1f(kNoiseAngleStep));
  const F z = V::mulf(x, x);
  F s = V::addf(
      V::mulf(V::addf(V::mulf(V::set1f(kNoiseSin[0]), z),
                      V::set1f(kNoiseSin[1])),
              z),
      V::set1f(kNoiseSin[2]));
  s = V::addf(V::mulf(V::mulf(s, z), x), x);
  F c = V::addf(
      V::mulf(V::addf(V::mulf(V::set1f(kNoiseCos[0]), z),
                      V::set1f(kNoiseCos[1])),
              z),
      V::set1f(kNoiseCos[2]));
  c = V::addf(V::subf(V::mulf(V::mulf(c, z), z), V::mulf(V::set1f(0.5f), z)),
              V::set1f(1.0f));
  // Bit 30 of b ^ (b << 1) is bit 30 ^ bit 29, bit 31 is bit 31 ^ bit 30.
  const auto flips = V::xor_(b, V::template slli<1>(b));
  const auto swap = V::bit(flips, 1u << 30);
  const auto sign = V::set1(0x80000000u);
  cos_out = V::xorf(V::select(swap, s, c), V::as_float(V::and_(flips, sign)));
  sin_out = V::xorf(V::select(swap, c, s), V::as_float(V::and_(b, sign)));
}

/// p[] += one register of noise: the samples whose even word indices
/// are the lanes of `w`.
template <class V>
void add_noise_block(float* p, typename V::I w, typename V::I k0,
                     typename V::I k1, typename V::F sigma) {
  using F = typename V::F;
  const F r = V::sqrtf(
      V::mulf(V::set1f(-2.0f), noise_log_v<V>(noise_word_v<V>(w, k0, k1))));
  F c, s;
  noise_sincos_v<V>(noise_word_v<V>(V::add(w, V::set1(1)), k0, k1), c, s);
  const F rs = V::mulf(r, sigma);
  V::add_pairs(p, V::mulf(rs, c), V::mulf(rs, s));
}

template <class V>
void add_noise_impl(Cf* x, std::size_t n, std::uint32_t w0, NoiseKey k,
                    float sigma) {
  const auto k0 = V::set1(k.k0);
  const auto k1 = V::set1(k.k1);
  const auto vsigma = V::set1f(sigma);
  const auto step = V::set1(static_cast<std::uint32_t>(2 * V::kLanes));
  auto w = V::add(V::set1(w0), V::lane_words());
  // A partial last register runs over a zero-padded copy: each sample's
  // noise depends only on its index, so the padding lanes disturb nothing.
  Cf tail[V::kLanes] = {};
  for (std::size_t i = 0; i < n; i += V::kLanes) {
    const bool partial = n - i < V::kLanes;
    if (partial) std::copy(x + i, x + n, tail);
    add_noise_block<V>(reinterpret_cast<float*>(partial ? tail : x + i), w,
                       k0, k1, vsigma);
    if (partial) std::copy(tail, tail + (n - i), x + i);
    w = V::add(w, step);
  }
}

}  // namespace vran::phy::simd
