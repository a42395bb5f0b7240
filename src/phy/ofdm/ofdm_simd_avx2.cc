// AVX2 tier of the OFDM kernels: 4 complex lanes per register.
// Bound by the exactness contract in fft.h / ofdm_simd.h — identical
// per-element operation sequence to the scalar reference. This TU
// builds with -mavx2 -ffp-contract=off (the contract forbids the FMA
// contraction -mavx2 would otherwise enable).
#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "phy/ofdm/ofdm_simd.h"

namespace vran::phy::simd {
namespace {

constexpr int kNeg = static_cast<int>(0x80000000u);

// Negate the upper complex of each length-2 group (complexes 1, 3).
inline __m256 sign_hi2() {
  return _mm256_castsi256_ps(
      _mm256_setr_epi32(0, 0, kNeg, kNeg, 0, 0, kNeg, kNeg));
}
// Negate the upper half of the length-4 group (complexes 2, 3).
inline __m256 sign_hi4() {
  return _mm256_castsi256_ps(
      _mm256_setr_epi32(0, 0, 0, 0, kNeg, kNeg, kNeg, kNeg));
}

/// v = x * w from pre-split twiddles (FftTwiddles): mul, permute, mul,
/// add — per component the scalar two muls and one add or subtract.
inline __m256 cmul(__m256 x, __m256 wre, __m256 wim) {
  const __m256 t1 = _mm256_mul_ps(x, wre);
  const __m256 xs = _mm256_permute_ps(x, _MM_SHUFFLE(2, 3, 0, 1));
  return _mm256_add_ps(t1, _mm256_mul_ps(xs, wim));
}

}  // namespace

void fft_pass_avx2(Cf* data, std::size_t n, FftTwiddles tw, bool normalize) {
  float* f = reinterpret_cast<float*>(data);
  const __m256 scale = _mm256_set1_ps(1.0f / static_cast<float>(n));

  // Stage half = 1: two length-2 groups per register. OUT = U + (v ^
  // sign), and u + (-v) is exactly u - v.
  {
    double wi;
    std::memcpy(&wi, tw.im + 2, sizeof(wi));
    const __m256 wre = _mm256_set1_ps(tw.re[2]);
    const __m256 wim = _mm256_castpd_ps(_mm256_set1_pd(wi));
    const __m256 sh = sign_hi2();
    const bool last = normalize && n == 2;
    for (std::size_t i = 0; i < n; i += 4) {
      const __m256d a = _mm256_castps_pd(_mm256_loadu_ps(f + 2 * i));
      const __m256 u = _mm256_castpd_ps(_mm256_unpacklo_pd(a, a));
      const __m256 x = _mm256_castpd_ps(_mm256_unpackhi_pd(a, a));
      __m256 o = _mm256_add_ps(u, _mm256_xor_ps(cmul(x, wre, wim), sh));
      if (last) o = _mm256_mul_ps(o, scale);
      _mm256_storeu_ps(f + 2 * i, o);
    }
  }

  // Stage half = 2: one length-4 group per register. Twiddles w0, w1 at
  // stage offset 2 broadcast to both 128-bit lanes.
  {
    const __m256 wre = _mm256_broadcast_ps(
        reinterpret_cast<const __m128*>(tw.re + 4));
    const __m256 wim = _mm256_broadcast_ps(
        reinterpret_cast<const __m128*>(tw.im + 4));
    const __m256 sh = sign_hi4();
    const bool last = normalize && n == 4;
    for (std::size_t i = 0; i < n; i += 4) {
      const __m256d a = _mm256_castps_pd(_mm256_loadu_ps(f + 2 * i));
      const __m256 u = _mm256_castpd_ps(_mm256_permute4x64_pd(a, 0x44));
      const __m256 x = _mm256_castpd_ps(_mm256_permute4x64_pd(a, 0xEE));
      __m256 o = _mm256_add_ps(u, _mm256_xor_ps(cmul(x, wre, wim), sh));
      if (last) o = _mm256_mul_ps(o, scale);
      _mm256_storeu_ps(f + 2 * i, o);
    }
  }

  // Wide stages (half >= 4 complex lanes).
  for (std::size_t half = 4; half < n; half <<= 1) {
    const std::size_t len = half << 1;
    const bool last = normalize && len == n;
    const float* wre = tw.re + 2 * half;
    const float* wim = tw.im + 2 * half;
    for (std::size_t s = 0; s < n; s += len) {
      for (std::size_t k = 0; k < half; k += 4) {
        float* pu = f + 2 * (s + k);
        float* px = pu + 2 * half;
        const __m256 u = _mm256_loadu_ps(pu);
        const __m256 v = cmul(_mm256_loadu_ps(px), _mm256_load_ps(wre + 2 * k),
                              _mm256_load_ps(wim + 2 * k));
        __m256 a = _mm256_add_ps(u, v);
        __m256 b = _mm256_sub_ps(u, v);
        if (last) {
          a = _mm256_mul_ps(a, scale);
          b = _mm256_mul_ps(b, scale);
        }
        _mm256_storeu_ps(pu, a);
        _mm256_storeu_ps(px, b);
      }
    }
  }
}

void q12_to_cf_avx2(const IqSample* in, Cf* out, std::size_t n, float scale) {
  const std::int16_t* p = reinterpret_cast<const std::int16_t*>(in);
  float* f = reinterpret_cast<float*>(out);
  const std::size_t m = 2 * n;
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m128i w16 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i));
    const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(w16));
    _mm256_storeu_ps(f + i, _mm256_mul_ps(v, vs));
  }
  for (; i < m; ++i) f[i] = static_cast<float>(p[i]) * scale;
}

void cf_to_q12_avx2(const Cf* in, IqSample* out, std::size_t n,
                    float unscale) {
  const float* f = reinterpret_cast<const float*>(in);
  std::int16_t* p = reinterpret_cast<std::int16_t*>(out);
  const std::size_t m = 2 * n;
  const __m256 vu = _mm256_set1_ps(unscale);
  const __m256 lo = _mm256_set1_ps(-32768.0f);
  const __m256 hi = _mm256_set1_ps(32767.0f);
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    const __m256 a = _mm256_min_ps(
        _mm256_max_ps(_mm256_mul_ps(_mm256_loadu_ps(f + i), vu), lo), hi);
    const __m256 b = _mm256_min_ps(
        _mm256_max_ps(_mm256_mul_ps(_mm256_loadu_ps(f + i + 8), vu), lo), hi);
    // packs interleaves per 128-bit lane; permute restores linear order.
    const __m256i packed = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(_mm256_cvtps_epi32(a), _mm256_cvtps_epi32(b)),
        _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + i), packed);
  }
  for (; i < m; ++i) p[i] = quantize_q12(f[i] * unscale);
}

}  // namespace vran::phy::simd
