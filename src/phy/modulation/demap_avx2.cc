// AVX2 tier of the max-log demapper: 8 symbols (16 axis values) per
// iteration. Bound by the exactness contract in demap_simd.h.
#include <immintrin.h>

#include "phy/modulation/demap_simd.h"

namespace vran::phy::simd {
namespace {

/// lround(clamp(diff * inv)) for 4 lanes.
inline __m128i scale_round4(__m256d d, __m256d inv) {
  constexpr int kTrunc = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
  __m256d x = _mm256_mul_pd(d, inv);
  x = _mm256_min_pd(_mm256_max_pd(x, _mm256_set1_pd(-kLlrMagnitudeCap)),
                    _mm256_set1_pd(kLlrMagnitudeCap));
  const __m256d t = _mm256_round_pd(x, kTrunc);
  const __m256d c = _mm256_round_pd(
      _mm256_mul_pd(_mm256_sub_pd(x, t), _mm256_set1_pd(2.0)), kTrunc);
  return _mm256_cvttpd_epi32(_mm256_add_pd(t, c));
}

inline __m256i scale_round(__m256i diff, __m256d inv) {
  const __m128i lo =
      scale_round4(_mm256_cvtepi32_pd(_mm256_castsi256_si128(diff)), inv);
  const __m128i hi =
      scale_round4(_mm256_cvtepi32_pd(_mm256_extracti128_si256(diff, 1)), inv);
  return _mm256_inserti128_si256(_mm256_castsi128_si256(lo), hi, 1);
}

template <int B>
std::size_t demap_bits(const IqSample* in, std::size_t n, const DemapAxis& a,
                       std::int16_t* out) {
  constexpr int kLevels = 1 << B;
  __m256i c2l[kLevels], csq[kLevels];
  for (int g = 0; g < kLevels; ++g) {
    c2l[g] = _mm256_set1_epi32(a.madd_2l[g]);
    csq[g] = _mm256_set1_epi32(a.level_sq[g]);
  }
  const __m256d inv = _mm256_set1_pd(a.inv_n0_scale);
  const __m256i zero = _mm256_setzero_si256();

  std::size_t s = 0;
  for (; s + kDemapAvx2Block <= n; s += kDemapAvx2Block) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + s));
    // In-lane unpacks; the in-lane pack below restores input order.
    const __m256i half[2] = {_mm256_unpacklo_epi16(v, zero),
                             _mm256_unpackhi_epi16(v, zero)};
    __m256i llr32[2][B];
    for (int h = 0; h < 2; ++h) {
      __m256i e[kLevels];
      for (int g = 0; g < kLevels; ++g) {
        e[g] = _mm256_add_epi32(_mm256_madd_epi16(half[h], c2l[g]), csq[g]);
      }
      for (int j = 0; j < B; ++j) {
        __m256i m0 = _mm256_set1_epi32(0x7FFFFFFF), m1 = m0;
        for (int g = 0; g < kLevels; ++g) {
          if ((g >> (B - 1 - j)) & 1) {
            m1 = _mm256_min_epi32(m1, e[g]);
          } else {
            m0 = _mm256_min_epi32(m0, e[g]);
          }
        }
        llr32[h][j] = scale_round(_mm256_sub_epi32(m0, m1), inv);
      }
    }
    // pair[j]: the (I, Q) LLR pairs of axis bit j for the 8 symbols.
    __m256i pair[B];
    for (int j = 0; j < B; ++j) {
      pair[j] = _mm256_packs_epi32(llr32[0][j], llr32[1][j]);
    }
    auto* dst = reinterpret_cast<__m256i*>(out + s * 2 * B);
    if constexpr (B == 1) {
      _mm256_storeu_si256(dst, pair[0]);
    } else if constexpr (B == 2) {
      const __m256i lo = _mm256_unpacklo_epi32(pair[0], pair[1]);
      const __m256i hi = _mm256_unpackhi_epi32(pair[0], pair[1]);
      _mm256_storeu_si256(dst, _mm256_permute2x128_si256(lo, hi, 0x20));
      _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(lo, hi, 0x31));
    } else {
      // The SSE 3-way interleave in each 128-bit lane (symbols 0-3 and
      // 4-7), then three lane permutes put the six quarters in order.
      const __m256i as = _mm256_shuffle_epi32(pair[0], _MM_SHUFFLE(1, 2, 3, 0));
      const __m256i bs = _mm256_shuffle_epi32(pair[1], _MM_SHUFFLE(2, 3, 0, 1));
      const __m256i cs = _mm256_shuffle_epi32(pair[2], _MM_SHUFFLE(3, 0, 1, 2));
      const __m256i o0 =
          _mm256_blend_epi32(_mm256_blend_epi32(as, bs, 0x22), cs, 0x44);
      const __m256i o1 =
          _mm256_blend_epi32(_mm256_blend_epi32(as, bs, 0x99), cs, 0x22);
      const __m256i o2 =
          _mm256_blend_epi32(_mm256_blend_epi32(as, bs, 0x44), cs, 0x99);
      _mm256_storeu_si256(dst, _mm256_permute2x128_si256(o0, o1, 0x20));
      _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(o2, o0, 0x30));
      _mm256_storeu_si256(dst + 2, _mm256_permute2x128_si256(o1, o2, 0x31));
    }
  }
  return s;
}

}  // namespace

std::size_t demap_avx2(const IqSample* in, std::size_t n, const DemapAxis& a,
                       std::int16_t* out) {
  switch (a.bits) {
    case 1: return demap_bits<1>(in, n, a, out);
    case 2: return demap_bits<2>(in, n, a, out);
    case 3: return demap_bits<3>(in, n, a, out);
  }
  return 0;
}

}  // namespace vran::phy::simd
