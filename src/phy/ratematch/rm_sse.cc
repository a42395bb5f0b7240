// SSE4.1 tier of rate matching: 8-row transposes, and the triple
// interleave as three pshufb-and-or groups per 8 triples.
#include <smmintrin.h>

#include "phy/ratematch/rm_kernels.h"

namespace vran::phy::simd {

namespace {

alignas(16) constexpr rm_impl::PshufbTable kMasks =
    rm_impl::interleave_pshufb_table();

struct VSse {
  using reg = __m128i;
  static constexpr int kW = 1;
  static constexpr int kByteHalves = 1;
  static constexpr int kByteGroups = 1;

  static reg load(const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  }
  template <int Q>
  static void store_lane(void* p, reg v) {
    _mm_storeu_si128(static_cast<__m128i*>(p), v);
  }
  static reg load_bytes(const std::uint8_t* p, std::ptrdiff_t) {
    return load(p);
  }
  static reg lo8(reg a, reg b) { return _mm_unpacklo_epi8(a, b); }
  static reg hi8(reg a, reg b) { return _mm_unpackhi_epi8(a, b); }
  static reg lo16(reg a, reg b) { return _mm_unpacklo_epi16(a, b); }
  static reg hi16(reg a, reg b) { return _mm_unpackhi_epi16(a, b); }
  static reg lo32(reg a, reg b) { return _mm_unpacklo_epi32(a, b); }
  static reg hi32(reg a, reg b) { return _mm_unpackhi_epi32(a, b); }
  static reg lo64(reg a, reg b) { return _mm_unpacklo_epi64(a, b); }
  static reg hi64(reg a, reg b) { return _mm_unpackhi_epi64(a, b); }

  /// 8 triples: d0 words t[0..8), pairs x[0..16) with the v2 half taken
  /// from the pair before (x - 2).
  static void interleave3(const std::int16_t* t, const std::int16_t* x,
                          std::int16_t* out) {
    const reg a = load(t);
    const reg x0 = _mm_blend_epi16(load(x), load(x - 2), 0xAA);
    const reg x1 = _mm_blend_epi16(load(x + 8), load(x + 6), 0xAA);
#pragma GCC unroll 3
    for (int j = 0; j < 3; ++j) {
      const reg o = _mm_or_si128(
          _mm_or_si128(_mm_shuffle_epi8(a, load(kMasks[j][0].data())),
                       _mm_shuffle_epi8(x0, load(kMasks[j][1].data()))),
          _mm_shuffle_epi8(x1, load(kMasks[j][2].data())));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 8 * j), o);
    }
  }
};

}  // namespace

std::size_t add_sym_sse(std::int16_t* w, const std::int16_t* llr,
                        std::size_t n) {
  const __m128i floor = _mm_set1_epi16(-32767);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i s = _mm_adds_epi16(VSse::load(w + i), VSse::load(llr + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(w + i), _mm_max_epi16(s, floor));
  }
  return i;
}

int triples_sse(const RmGeometry& g, const std::int16_t* w,
                std::int16_t* triples, int row) {
  return rm_impl::triples_kernel<VSse>(g, w, triples, row);
}

int gather_sse(const RmGeometry& g, const std::uint8_t* d0,
               const std::uint8_t* d1, const std::uint8_t* d2,
               std::uint8_t* w, int row) {
  return rm_impl::gather_kernel<VSse>(g, d0, d1, d2, w, row);
}

}  // namespace vran::phy::simd
