// SSE4.1 tier of the max-log demapper: 4 symbols (8 axis values) per
// iteration. Bound by the exactness contract in demap_simd.h.
#include <smmintrin.h>

#include "phy/modulation/demap_simd.h"

namespace vran::phy::simd {
namespace {

/// lround(clamp(diff * inv)) for 2 lanes, in the low 64 bits.
inline __m128i scale_round2(__m128d d, __m128d inv) {
  constexpr int kTrunc = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
  __m128d x = _mm_mul_pd(d, inv);
  x = _mm_min_pd(_mm_max_pd(x, _mm_set1_pd(-kLlrMagnitudeCap)),
                 _mm_set1_pd(kLlrMagnitudeCap));
  const __m128d t = _mm_round_pd(x, kTrunc);
  const __m128d c =
      _mm_round_pd(_mm_mul_pd(_mm_sub_pd(x, t), _mm_set1_pd(2.0)), kTrunc);
  return _mm_cvttpd_epi32(_mm_add_pd(t, c));
}

inline __m128i scale_round(__m128i diff, __m128d inv) {
  const __m128i lo = scale_round2(_mm_cvtepi32_pd(diff), inv);
  const __m128i hi =
      scale_round2(_mm_cvtepi32_pd(_mm_unpackhi_epi64(diff, diff)), inv);
  return _mm_unpacklo_epi64(lo, hi);
}

template <int B>
std::size_t demap_bits(const IqSample* in, std::size_t n, const DemapAxis& a,
                       std::int16_t* out) {
  constexpr int kLevels = 1 << B;
  __m128i c2l[kLevels], csq[kLevels];
  for (int g = 0; g < kLevels; ++g) {
    c2l[g] = _mm_set1_epi32(a.madd_2l[g]);
    csq[g] = _mm_set1_epi32(a.level_sq[g]);
  }
  const __m128d inv = _mm_set1_pd(a.inv_n0_scale);
  const __m128i zero = _mm_setzero_si128();

  std::size_t s = 0;
  for (; s + kDemapSseBlock <= n; s += kDemapSseBlock) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + s));
    const __m128i half[2] = {_mm_unpacklo_epi16(v, zero),
                             _mm_unpackhi_epi16(v, zero)};
    __m128i llr32[2][B];
    for (int h = 0; h < 2; ++h) {
      __m128i e[kLevels];
      for (int g = 0; g < kLevels; ++g) {
        e[g] = _mm_add_epi32(_mm_madd_epi16(half[h], c2l[g]), csq[g]);
      }
      for (int j = 0; j < B; ++j) {
        __m128i m0 = _mm_set1_epi32(0x7FFFFFFF), m1 = m0;
        for (int g = 0; g < kLevels; ++g) {
          if ((g >> (B - 1 - j)) & 1) {
            m1 = _mm_min_epi32(m1, e[g]);
          } else {
            m0 = _mm_min_epi32(m0, e[g]);
          }
        }
        llr32[h][j] = scale_round(_mm_sub_epi32(m0, m1), inv);
      }
    }
    // pair[j]: the (I, Q) LLR pairs of axis bit j for the 4 symbols.
    __m128i pair[B];
    for (int j = 0; j < B; ++j) {
      pair[j] = _mm_packs_epi32(llr32[0][j], llr32[1][j]);
    }
    auto* dst = reinterpret_cast<__m128i*>(out + s * 2 * B);
    if constexpr (B == 1) {
      _mm_storeu_si128(dst, pair[0]);
    } else if constexpr (B == 2) {
      _mm_storeu_si128(dst, _mm_unpacklo_epi32(pair[0], pair[1]));
      _mm_storeu_si128(dst + 1, _mm_unpackhi_epi32(pair[0], pair[1]));
    } else {
      // 3-way interleave a0 b0 c0 a1 | b1 c1 a2 b2 | c2 a3 b3 c3: one
      // shuffle per source puts every element in its output lane, two
      // blends per output pick the source.
      const __m128i as = _mm_shuffle_epi32(pair[0], _MM_SHUFFLE(1, 2, 3, 0));
      const __m128i bs = _mm_shuffle_epi32(pair[1], _MM_SHUFFLE(2, 3, 0, 1));
      const __m128i cs = _mm_shuffle_epi32(pair[2], _MM_SHUFFLE(3, 0, 1, 2));
      _mm_storeu_si128(dst, _mm_blend_epi16(_mm_blend_epi16(as, bs, 0x0C), cs,
                                            0x30));
      _mm_storeu_si128(dst + 1, _mm_blend_epi16(_mm_blend_epi16(as, bs, 0xC3),
                                                cs, 0x0C));
      _mm_storeu_si128(dst + 2, _mm_blend_epi16(_mm_blend_epi16(as, bs, 0x30),
                                                cs, 0xC3));
    }
  }
  return s;
}

}  // namespace

std::size_t demap_sse(const IqSample* in, std::size_t n, const DemapAxis& a,
                      std::int16_t* out) {
  switch (a.bits) {
    case 1: return demap_bits<1>(in, n, a, out);
    case 2: return demap_bits<2>(in, n, a, out);
    case 3: return demap_bits<3>(in, n, a, out);
  }
  return 0;
}

}  // namespace vran::phy::simd
