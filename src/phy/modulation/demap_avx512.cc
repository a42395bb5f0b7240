// AVX-512 tier of the max-log demapper: 16 symbols (32 axis values) per
// iteration. Bound by the exactness contract in demap_simd.h.
#include <immintrin.h>

#include <array>

#include "phy/modulation/demap_simd.h"

namespace vran::phy::simd {
namespace {

/// lround(clamp(diff * inv)) for 8 lanes.
inline __m256i scale_round8(__m512d d, __m512d inv) {
  constexpr int kTrunc = _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC;
  __m512d x = _mm512_mul_pd(d, inv);
  x = _mm512_min_pd(_mm512_max_pd(x, _mm512_set1_pd(-kLlrMagnitudeCap)),
                    _mm512_set1_pd(kLlrMagnitudeCap));
  const __m512d t = _mm512_roundscale_pd(x, kTrunc);
  const __m512d c = _mm512_roundscale_pd(
      _mm512_mul_pd(_mm512_sub_pd(x, t), _mm512_set1_pd(2.0)), kTrunc);
  return _mm512_cvttpd_epi32(_mm512_add_pd(t, c));
}

inline __m512i scale_round(__m512i diff, __m512d inv) {
  const __m256i lo =
      scale_round8(_mm512_cvtepi32_pd(_mm512_castsi512_si256(diff)), inv);
  const __m256i hi =
      scale_round8(_mm512_cvtepi32_pd(_mm512_extracti64x4_epi64(diff, 1)), inv);
  return _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
}

/// permutex2var indices interleaving B pair vectors (32-bit elements,
/// one per symbol) into output register r: element e of the output is
/// pair[e % B] of symbol e / B. For B == 3 a first permute takes pairs
/// 0 and 1 (`first`) and a second one merges pair 2 (`second`).
template <int B>
struct Interleave {
  std::array<std::array<std::int32_t, 16>, B> first{};
  std::array<std::array<std::int32_t, 16>, B> second{};
};

template <int B>
constexpr Interleave<B> make_interleave() {
  Interleave<B> ix{};
  for (int r = 0; r < B; ++r) {
    for (int t = 0; t < 16; ++t) {
      const int e = 16 * r + t;
      const int j = e % B, s = e / B;
      ix.first[r][t] = j == 0 ? s : (j == 1 ? 16 + s : 0);
      ix.second[r][t] = j == 2 ? 16 + s : t;
    }
  }
  return ix;
}

template <int B>
std::size_t demap_bits(const IqSample* in, std::size_t n, const DemapAxis& a,
                       std::int16_t* out) {
  constexpr int kLevels = 1 << B;
  static constexpr Interleave<B> kIx = make_interleave<B>();
  __m512i c2l[kLevels], csq[kLevels];
  for (int g = 0; g < kLevels; ++g) {
    c2l[g] = _mm512_set1_epi32(a.madd_2l[g]);
    csq[g] = _mm512_set1_epi32(a.level_sq[g]);
  }
  __m512i first[B], second[B];
  for (int r = 0; r < B; ++r) {
    first[r] = _mm512_loadu_si512(kIx.first[r].data());
    second[r] = _mm512_loadu_si512(kIx.second[r].data());
  }
  const __m512d inv = _mm512_set1_pd(a.inv_n0_scale);
  const __m512i zero = _mm512_setzero_si512();

  std::size_t s = 0;
  for (; s + kDemapAvx512Block <= n; s += kDemapAvx512Block) {
    const __m512i v = _mm512_loadu_si512(in + s);
    // In-lane unpacks; the in-lane pack below restores input order.
    const __m512i half[2] = {_mm512_unpacklo_epi16(v, zero),
                             _mm512_unpackhi_epi16(v, zero)};
    __m512i llr32[2][B];
    for (int h = 0; h < 2; ++h) {
      __m512i e[kLevels];
      for (int g = 0; g < kLevels; ++g) {
        e[g] = _mm512_add_epi32(_mm512_madd_epi16(half[h], c2l[g]), csq[g]);
      }
      for (int j = 0; j < B; ++j) {
        __m512i m0 = _mm512_set1_epi32(0x7FFFFFFF), m1 = m0;
        for (int g = 0; g < kLevels; ++g) {
          if ((g >> (B - 1 - j)) & 1) {
            m1 = _mm512_min_epi32(m1, e[g]);
          } else {
            m0 = _mm512_min_epi32(m0, e[g]);
          }
        }
        llr32[h][j] = scale_round(_mm512_sub_epi32(m0, m1), inv);
      }
    }
    // pair[j]: the (I, Q) LLR pairs of axis bit j for the 16 symbols.
    __m512i pair[B];
    for (int j = 0; j < B; ++j) {
      pair[j] = _mm512_packs_epi32(llr32[0][j], llr32[1][j]);
    }
    std::int16_t* dst = out + s * 2 * B;
    if constexpr (B == 1) {
      _mm512_storeu_si512(dst, pair[0]);
    } else {
      for (int r = 0; r < B; ++r) {
        __m512i o = _mm512_permutex2var_epi32(pair[0], first[r], pair[1]);
        if constexpr (B == 3) o = _mm512_permutex2var_epi32(o, second[r], pair[2]);
        _mm512_storeu_si512(dst + 32 * r, o);
      }
    }
  }
  return s;
}

}  // namespace

std::size_t demap_avx512(const IqSample* in, std::size_t n, const DemapAxis& a,
                         std::int16_t* out) {
  switch (a.bits) {
    case 1: return demap_bits<1>(in, n, a, out);
    case 2: return demap_bits<2>(in, n, a, out);
    case 3: return demap_bits<3>(in, n, a, out);
  }
  return 0;
}

}  // namespace vran::phy::simd
