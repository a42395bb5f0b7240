// SSE4.1 tier of the OFDM kernels: 2 complex lanes per register.
// Bound by the exactness contract in fft.h / ofdm_simd.h — every
// per-element operation sequence below matches the scalar reference
// bit-for-bit (this TU builds with -ffp-contract=off).
#include <smmintrin.h>

#include <cmath>
#include <cstring>

#include "phy/ofdm/ofdm_simd.h"

namespace vran::phy::simd {
namespace {

constexpr int kNeg = static_cast<int>(0x80000000u);

// Negate the upper complex of each length-2 butterfly group.
inline __m128 sign_hi2() { return _mm_castsi128_ps(_mm_setr_epi32(0, 0, kNeg, kNeg)); }

/// v = x * w from pre-split twiddles (FftTwiddles): mul, permute, mul,
/// add — per component the scalar vr = xr*wr - xi*wi (as xr*wr +
/// (-(xi*wi)), exact) and vi = xr*wi + xi*wr.
inline __m128 cmul(__m128 x, __m128 wre, __m128 wim) {
  const __m128 t1 = _mm_mul_ps(x, wre);
  const __m128 xs = _mm_shuffle_ps(x, x, _MM_SHUFFLE(2, 3, 0, 1));
  return _mm_add_ps(t1, _mm_mul_ps(xs, wim));
}

}  // namespace

void fft_pass_sse(Cf* data, std::size_t n, FftTwiddles tw, bool normalize) {
  float* f = reinterpret_cast<float*>(data);
  const __m128 scale = _mm_set1_ps(1.0f / static_cast<float>(n));

  // Stage half = 1: one full length-2 butterfly group per register,
  // computed in-register: OUT = U + (cmul(X, w) ^ sign_hi).
  {
    double wi;
    std::memcpy(&wi, tw.im + 2, sizeof(wi));
    const __m128 wre = _mm_set1_ps(tw.re[2]);
    const __m128 wim = _mm_castpd_ps(_mm_set1_pd(wi));
    const __m128 sh = sign_hi2();
    const bool last = normalize && n == 2;
    for (std::size_t i = 0; i < n; i += 2) {
      const __m128 a = _mm_loadu_ps(f + 2 * i);
      const __m128 u = _mm_shuffle_ps(a, a, _MM_SHUFFLE(1, 0, 1, 0));
      const __m128 x = _mm_shuffle_ps(a, a, _MM_SHUFFLE(3, 2, 3, 2));
      __m128 o = _mm_add_ps(u, _mm_xor_ps(cmul(x, wre, wim), sh));
      if (last) o = _mm_mul_ps(o, scale);
      _mm_storeu_ps(f + 2 * i, o);
    }
  }

  // Wide stages (half >= 2 complex lanes): contiguous U/X/twiddle loads.
  for (std::size_t half = 2; half < n; half <<= 1) {
    const std::size_t len = half << 1;
    const bool last = normalize && len == n;
    const float* wre = tw.re + 2 * half;
    const float* wim = tw.im + 2 * half;
    for (std::size_t s = 0; s < n; s += len) {
      for (std::size_t k = 0; k < half; k += 2) {
        float* pu = f + 2 * (s + k);
        float* px = pu + 2 * half;
        const __m128 u = _mm_loadu_ps(pu);
        const __m128 v = cmul(_mm_loadu_ps(px), _mm_load_ps(wre + 2 * k),
                              _mm_load_ps(wim + 2 * k));
        __m128 a = _mm_add_ps(u, v);
        __m128 b = _mm_sub_ps(u, v);
        if (last) {
          a = _mm_mul_ps(a, scale);
          b = _mm_mul_ps(b, scale);
        }
        _mm_storeu_ps(pu, a);
        _mm_storeu_ps(px, b);
      }
    }
  }
}

void q12_to_cf_sse(const IqSample* in, Cf* out, std::size_t n, float scale) {
  const std::int16_t* p = reinterpret_cast<const std::int16_t*>(in);
  float* f = reinterpret_cast<float*>(out);
  const std::size_t m = 2 * n;
  const __m128 vs = _mm_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m128i w16 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p + i));
    const __m128 v = _mm_cvtepi32_ps(_mm_cvtepi16_epi32(w16));
    _mm_storeu_ps(f + i, _mm_mul_ps(v, vs));
  }
  for (; i < m; ++i) f[i] = static_cast<float>(p[i]) * scale;
}

void cf_to_q12_sse(const Cf* in, IqSample* out, std::size_t n, float unscale) {
  const float* f = reinterpret_cast<const float*>(in);
  std::int16_t* p = reinterpret_cast<std::int16_t*>(out);
  const std::size_t m = 2 * n;
  const __m128 vu = _mm_set1_ps(unscale);
  const __m128 lo = _mm_set1_ps(-32768.0f);
  const __m128 hi = _mm_set1_ps(32767.0f);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m128 a = _mm_min_ps(
        _mm_max_ps(_mm_mul_ps(_mm_loadu_ps(f + i), vu), lo), hi);
    const __m128 b = _mm_min_ps(
        _mm_max_ps(_mm_mul_ps(_mm_loadu_ps(f + i + 4), vu), lo), hi);
    const __m128i packed =
        _mm_packs_epi32(_mm_cvtps_epi32(a), _mm_cvtps_epi32(b));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p + i), packed);
  }
  for (; i < m; ++i) p[i] = quantize_q12(f[i] * unscale);
}

}  // namespace vran::phy::simd
