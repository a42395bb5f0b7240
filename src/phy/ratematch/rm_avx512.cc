// AVX-512 tier of rate matching: 32-row transposes (four 8-row networks,
// one per 128-bit lane), the triple interleave as three two-source word
// permutes, and masked HARQ combining with no scalar tail.
#include <immintrin.h>

#include "phy/ratematch/rm_kernels.h"

namespace vran::phy::simd {

namespace {

/// vpermt2w control for output register j of a 32-triple step: index
/// < 32 picks a d0 word, 32 + i picks word i of the pair register,
/// which starts at pair 0, 8 or 16 for j = 0, 1, 2.
constexpr std::array<std::int16_t, 32> interleave_perm(int j) {
  std::array<std::int16_t, 32> m{};
  for (int i = 0; i < 32; ++i) {
    const rm_impl::TripleSource ts = rm_impl::triple_source(32 * j + i);
    m[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
        ts.src == 0 ? ts.word : 32 + ts.word - 16 * j);
  }
  return m;
}

alignas(64) constexpr std::array<std::int16_t, 32> kPerm[3] = {
    interleave_perm(0), interleave_perm(1), interleave_perm(2)};

struct VAvx512 {
  using reg = __m512i;
  static constexpr int kW = 4;
  static constexpr int kByteHalves = 2;
  static constexpr int kByteGroups = 2;

  static reg load(const void* p) { return _mm512_loadu_si512(p); }
  template <int Q>
  static void store_lane(void* p, reg v) {
    _mm_storeu_si128(static_cast<__m128i*>(p),
                     _mm512_extracti32x4_epi32(v, Q));
  }
  /// Row r in lanes 0-1, row r + 16 in lanes 2-3.
  static reg load_bytes(const std::uint8_t* p, std::ptrdiff_t stride) {
    const __m256i lo = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + stride));
    return _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1);
  }
  static reg lo8(reg a, reg b) { return _mm512_unpacklo_epi8(a, b); }
  static reg hi8(reg a, reg b) { return _mm512_unpackhi_epi8(a, b); }
  static reg lo16(reg a, reg b) { return _mm512_unpacklo_epi16(a, b); }
  static reg hi16(reg a, reg b) { return _mm512_unpackhi_epi16(a, b); }
  static reg lo32(reg a, reg b) { return _mm512_unpacklo_epi32(a, b); }
  static reg hi32(reg a, reg b) { return _mm512_unpackhi_epi32(a, b); }
  static reg lo64(reg a, reg b) { return _mm512_unpacklo_epi64(a, b); }
  static reg hi64(reg a, reg b) { return _mm512_unpackhi_epi64(a, b); }

  /// 32 triples: pairs 0-15 and 16-31 (v2 halves from the pair before),
  /// pairs 8-23 by one dword alignment, then one vpermt2w per store.
  static void interleave3(const std::int16_t* t, const std::int16_t* x,
                          std::int16_t* out) {
    constexpr __mmask32 kOdd = 0xAAAAAAAAu;
    const reg a = load(t);
    const reg x0 = _mm512_mask_blend_epi16(kOdd, load(x), load(x - 2));
    const reg x2 = _mm512_mask_blend_epi16(kOdd, load(x + 32), load(x + 30));
    const reg x1 = _mm512_alignr_epi32(x2, x0, 8);
    const reg xs[3] = {x0, x1, x2};
#pragma GCC unroll 3
    for (int j = 0; j < 3; ++j) {
      _mm512_storeu_si512(out + 32 * j,
                          _mm512_permutex2var_epi16(a, load(kPerm[j].data()),
                                                    xs[j]));
    }
  }
};

}  // namespace

std::size_t add_sym_avx512(std::int16_t* w, const std::int16_t* llr,
                           std::size_t n) {
  const __m512i floor = _mm512_set1_epi16(-32767);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m512i s =
        _mm512_adds_epi16(VAvx512::load(w + i), VAvx512::load(llr + i));
    _mm512_storeu_si512(w + i, _mm512_max_epi16(s, floor));
  }
  if (i < n) {
    const __mmask32 m = (1u << (n - i)) - 1u;  // n - i < 32
    const __m512i s = _mm512_adds_epi16(_mm512_maskz_loadu_epi16(m, w + i),
                                        _mm512_maskz_loadu_epi16(m, llr + i));
    _mm512_mask_storeu_epi16(w + i, m, _mm512_max_epi16(s, floor));
  }
  return n;
}

int triples_avx512(const RmGeometry& g, const std::int16_t* w,
                   std::int16_t* triples, int row) {
  return rm_impl::triples_kernel<VAvx512>(g, w, triples, row);
}

int gather_avx512(const RmGeometry& g, const std::uint8_t* d0,
                  const std::uint8_t* d1, const std::uint8_t* d2,
                  std::uint8_t* w, int row) {
  return rm_impl::gather_kernel<VAvx512>(g, d0, d1, d2, w, row);
}

}  // namespace vran::phy::simd
