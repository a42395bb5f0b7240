// AVX-512 tier of the OFDM kernels: 8 complex lanes per register.
// Bound by the exactness contract in fft.h / ofdm_simd.h — identical
// per-element operation sequence to the scalar reference. Builds with
// -mavx512f/bw/vl/dq -ffp-contract=off.
#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "phy/ofdm/ofdm_simd.h"

namespace vran::phy::simd {
namespace {

/// v = x * w from pre-split twiddles (FftTwiddles): mul, permute, mul,
/// add — per component the scalar two muls and one add or subtract.
inline __m512 cmul(__m512 x, __m512 wre, __m512 wim) {
  const __m512 t1 = _mm512_mul_ps(x, wre);
  const __m512 xs = _mm512_permute_ps(x, _MM_SHUFFLE(2, 3, 0, 1));
  return _mm512_add_ps(t1, _mm512_mul_ps(xs, wim));
}

/// One register of radix-2 butterflies: u' = u + v, x' = u - v with
/// v = x * w.
inline void butterfly(__m512& u, __m512& x, __m512 wre, __m512 wim) {
  const __m512 v = cmul(x, wre, wim);
  x = _mm512_sub_ps(u, v);
  u = _mm512_add_ps(u, v);
}

/// Transpose of an 8 x 8 block of complexes: r[j] lane c -> r[c] lane j.
inline void transpose8x8(__m512 r[8]) {
  __m512d t[8];
  for (int j = 0; j < 8; j += 2) {
    const __m512d a = _mm512_castps_pd(r[j]);
    const __m512d b = _mm512_castps_pd(r[j + 1]);
    t[j] = _mm512_unpacklo_pd(a, b);      // lanes 0 2 4 6 of rows j, j+1
    t[j + 1] = _mm512_unpackhi_pd(a, b);  // lanes 1 3 5 7
  }
  const __m512i lo = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
  const __m512i hi = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
  // s[c] (c < 4) holds lanes c and c + 4 of rows 0-3, s[c + 4] the same
  // lanes of rows 4-7.
  __m512d s[8];
  for (int q = 0; q < 8; q += 4) {
    s[q + 0] = _mm512_permutex2var_pd(t[q + 0], lo, t[q + 2]);
    s[q + 2] = _mm512_permutex2var_pd(t[q + 0], hi, t[q + 2]);
    s[q + 1] = _mm512_permutex2var_pd(t[q + 1], lo, t[q + 3]);
    s[q + 3] = _mm512_permutex2var_pd(t[q + 1], hi, t[q + 3]);
  }
  for (int c = 0; c < 4; ++c) {
    r[c] = _mm512_castpd_ps(
        _mm512_shuffle_f64x2(s[c], s[c + 4], _MM_SHUFFLE(1, 0, 1, 0)));
    r[c + 4] = _mm512_castpd_ps(
        _mm512_shuffle_f64x2(s[c], s[c + 4], _MM_SHUFFLE(3, 2, 3, 2)));
  }
}

/// Three-bit reversal: row j of a block holds input row kRev3[j].
constexpr std::size_t kRev3[8] = {0, 4, 2, 6, 1, 5, 3, 7};

}  // namespace

void fft_avx512(const Cf* in, Cf* out, std::size_t n, FftTwiddles tw,
                bool normalize) {
  const float* fi = reinterpret_cast<const float*>(in);
  float* fo = reinterpret_cast<float*>(out);
  const std::size_t rows = n / 8;  // 8-complex rows per transform
  const std::size_t blocks = n / kAvx512FftBlock;

  // Stages h = 1, 2, 4 take complex twiddles 1..7 (offset h, entry k),
  // each broadcast to every lane: butterfly pairs sit in two registers.
  __m512 bre[8], bim[8];
  for (int j = 1; j < 8; ++j) {
    double im;
    std::memcpy(&im, tw.im + 2 * j, sizeof(im));
    bre[j] = _mm512_set1_ps(tw.re[2 * j]);
    bim[j] = _mm512_castpd_ps(_mm512_set1_pd(im));
  }

  // Output index (hi, mid, lo) of 3 + log2(blocks) + 3 bits reads input
  // (rev lo, rev mid, rev hi). Block `mid` loads register j from input
  // row (kRev3[j], rev mid), so output position lo of row hi is lane
  // kRev3[hi] of register lo: the first three stages pair registers,
  // and the transpose turns register c into output row kRev3[c].
  std::size_t rmid = 0;
  for (std::size_t mid = 0; mid < blocks; ++mid) {
    __m512 x[8];
    for (int j = 0; j < 8; ++j) {
      x[j] = _mm512_loadu_ps(fi + 2 * (kRev3[j] * rows + 8 * rmid));
    }
    butterfly(x[0], x[1], bre[1], bim[1]);
    butterfly(x[2], x[3], bre[1], bim[1]);
    butterfly(x[4], x[5], bre[1], bim[1]);
    butterfly(x[6], x[7], bre[1], bim[1]);
    butterfly(x[0], x[2], bre[2], bim[2]);
    butterfly(x[1], x[3], bre[3], bim[3]);
    butterfly(x[4], x[6], bre[2], bim[2]);
    butterfly(x[5], x[7], bre[3], bim[3]);
    butterfly(x[0], x[4], bre[4], bim[4]);
    butterfly(x[1], x[5], bre[5], bim[5]);
    butterfly(x[2], x[6], bre[6], bim[6]);
    butterfly(x[3], x[7], bre[7], bim[7]);
    transpose8x8(x);
    for (int c = 0; c < 8; ++c) {
      _mm512_storeu_ps(fo + 2 * (kRev3[c] * rows + 8 * mid), x[c]);
    }
    rmid = reversed_next(rmid, blocks);
  }

  // Wide stages (half >= 8): contiguous U / X / twiddle registers, two
  // stages h, 2h per pass over blocks of 4h while two remain.
  const __m512 scale = _mm512_set1_ps(1.0f / static_cast<float>(n));
  std::size_t half = 8;
  for (; 4 * half <= n; half <<= 2) {
    const bool last = normalize && 4 * half == n;
    const float* w1r = tw.re + 2 * half;
    const float* w1i = tw.im + 2 * half;
    const float* w2r = tw.re + 4 * half;
    const float* w2i = tw.im + 4 * half;
    for (std::size_t s = 0; s < n; s += 4 * half) {
      for (std::size_t k = 0; k < half; k += 8) {
        float* p0 = fo + 2 * (s + k);
        float* p1 = p0 + 2 * half;
        float* p2 = p1 + 2 * half;
        float* p3 = p2 + 2 * half;
        __m512 a = _mm512_loadu_ps(p0);
        __m512 b = _mm512_loadu_ps(p1);
        __m512 c = _mm512_loadu_ps(p2);
        __m512 d = _mm512_loadu_ps(p3);
        const __m512 wr = _mm512_load_ps(w1r + 2 * k);
        const __m512 wi = _mm512_load_ps(w1i + 2 * k);
        butterfly(a, b, wr, wi);
        butterfly(c, d, wr, wi);
        butterfly(a, c, _mm512_load_ps(w2r + 2 * k),
                  _mm512_load_ps(w2i + 2 * k));
        butterfly(b, d, _mm512_load_ps(w2r + 2 * (k + half)),
                  _mm512_load_ps(w2i + 2 * (k + half)));
        if (last) {
          a = _mm512_mul_ps(a, scale);
          b = _mm512_mul_ps(b, scale);
          c = _mm512_mul_ps(c, scale);
          d = _mm512_mul_ps(d, scale);
        }
        _mm512_storeu_ps(p0, a);
        _mm512_storeu_ps(p1, b);
        _mm512_storeu_ps(p2, c);
        _mm512_storeu_ps(p3, d);
      }
    }
  }
  for (; half < n; half <<= 1) {
    const std::size_t len = half << 1;
    const bool last = normalize && len == n;
    const float* wre = tw.re + 2 * half;
    const float* wim = tw.im + 2 * half;
    for (std::size_t s = 0; s < n; s += len) {
      for (std::size_t k = 0; k < half; k += 8) {
        float* pu = fo + 2 * (s + k);
        float* px = pu + 2 * half;
        __m512 u = _mm512_loadu_ps(pu);
        __m512 x = _mm512_loadu_ps(px);
        butterfly(u, x, _mm512_load_ps(wre + 2 * k),
                  _mm512_load_ps(wim + 2 * k));
        if (last) {
          u = _mm512_mul_ps(u, scale);
          x = _mm512_mul_ps(x, scale);
        }
        _mm512_storeu_ps(pu, u);
        _mm512_storeu_ps(px, x);
      }
    }
  }
}

void q12_to_cf_avx512(const IqSample* in, Cf* out, std::size_t n,
                      float scale) {
  const std::int16_t* p = reinterpret_cast<const std::int16_t*>(in);
  float* f = reinterpret_cast<float*>(out);
  const std::size_t m = 2 * n;
  const __m512 vs = _mm512_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    const __m256i w16 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    const __m512 v = _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(w16));
    _mm512_storeu_ps(f + i, _mm512_mul_ps(v, vs));
  }
  for (; i < m; ++i) f[i] = static_cast<float>(p[i]) * scale;
}

void cf_to_q12_avx512(const Cf* in, IqSample* out, std::size_t n,
                      float unscale) {
  const float* f = reinterpret_cast<const float*>(in);
  std::int16_t* p = reinterpret_cast<std::int16_t*>(out);
  const std::size_t m = 2 * n;
  const __m512 vu = _mm512_set1_ps(unscale);
  const __m512 lo = _mm512_set1_ps(-32768.0f);
  const __m512 hi = _mm512_set1_ps(32767.0f);
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    const __m512 a = _mm512_min_ps(
        _mm512_max_ps(_mm512_mul_ps(_mm512_loadu_ps(f + i), vu), lo), hi);
    // Saturating narrow keeps lane order linear (unlike packs) and the
    // clamp above already bounds it, so saturation never fires.
    const __m256i packed = _mm512_cvtsepi32_epi16(_mm512_cvtps_epi32(a));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p + i), packed);
  }
  for (; i < m; ++i) p[i] = quantize_q12(f[i] * unscale);
}

}  // namespace vran::phy::simd
