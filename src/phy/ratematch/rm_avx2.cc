// AVX2 tier of rate matching: 16-row transposes (two 8-row networks,
// one per 128-bit lane), and the triple interleave as the SSE pshufb
// groups run per lane, regrouped into whole-register stores.
#include <immintrin.h>

#include "phy/ratematch/rm_kernels.h"

namespace vran::phy::simd {

namespace {

alignas(16) constexpr rm_impl::PshufbTable kMasks =
    rm_impl::interleave_pshufb_table();

struct VAvx2 {
  using reg = __m256i;
  static constexpr int kW = 2;
  static constexpr int kByteHalves = 2;
  static constexpr int kByteGroups = 1;

  static reg load(const void* p) {
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
  }
  template <int Q>
  static void store_lane(void* p, reg v) {
    _mm_storeu_si128(static_cast<__m128i*>(p),
                     _mm256_extracti128_si256(v, Q));
  }
  static reg load_bytes(const std::uint8_t* p, std::ptrdiff_t) {
    return load(p);
  }
  static reg lo8(reg a, reg b) { return _mm256_unpacklo_epi8(a, b); }
  static reg hi8(reg a, reg b) { return _mm256_unpackhi_epi8(a, b); }
  static reg lo16(reg a, reg b) { return _mm256_unpacklo_epi16(a, b); }
  static reg hi16(reg a, reg b) { return _mm256_unpackhi_epi16(a, b); }
  static reg lo32(reg a, reg b) { return _mm256_unpacklo_epi32(a, b); }
  static reg hi32(reg a, reg b) { return _mm256_unpackhi_epi32(a, b); }
  static reg lo64(reg a, reg b) { return _mm256_unpacklo_epi64(a, b); }
  static reg hi64(reg a, reg b) { return _mm256_unpackhi_epi64(a, b); }

  static reg mask(int j, int s) {
    return _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(kMasks[j][s].data())));
  }

  /// 16 triples. Lane q of every operand holds 8-triple group q, so the
  /// SSE shuffle masks apply per lane; three lane permutes then restore
  /// memory order.
  static void interleave3(const std::int16_t* t, const std::int16_t* x,
                          std::int16_t* out) {
    const reg a = load(t);
    const reg xa = _mm256_blend_epi16(load(x), load(x - 2), 0xAA);
    const reg xb = _mm256_blend_epi16(load(x + 16), load(x + 14), 0xAA);
    const reg x0 = _mm256_permute2x128_si256(xa, xb, 0x20);  // pairs 0-3, 8-11
    const reg x1 = _mm256_permute2x128_si256(xa, xb, 0x31);  // 4-7, 12-15
    reg o[3];
#pragma GCC unroll 3
    for (int j = 0; j < 3; ++j) {
      o[j] = _mm256_or_si256(
          _mm256_or_si256(_mm256_shuffle_epi8(a, mask(j, 0)),
                          _mm256_shuffle_epi8(x0, mask(j, 1))),
          _mm256_shuffle_epi8(x1, mask(j, 2)));
    }
    auto* dst = reinterpret_cast<__m256i*>(out);
    _mm256_storeu_si256(dst, _mm256_permute2x128_si256(o[0], o[1], 0x20));
    _mm256_storeu_si256(dst + 1, _mm256_permute2x128_si256(o[2], o[0], 0x30));
    _mm256_storeu_si256(dst + 2, _mm256_permute2x128_si256(o[1], o[2], 0x31));
  }
};

}  // namespace

std::size_t add_sym_avx2(std::int16_t* w, const std::int16_t* llr,
                         std::size_t n) {
  const __m256i floor = _mm256_set1_epi16(-32767);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i s =
        _mm256_adds_epi16(VAvx2::load(w + i), VAvx2::load(llr + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(w + i),
                        _mm256_max_epi16(s, floor));
  }
  return i;
}

int triples_avx2(const RmGeometry& g, const std::int16_t* w,
                 std::int16_t* triples, int row) {
  return rm_impl::triples_kernel<VAvx2>(g, w, triples, row);
}

int gather_avx2(const RmGeometry& g, const std::uint8_t* d0,
                const std::uint8_t* d1, const std::uint8_t* d2,
                std::uint8_t* w, int row) {
  return rm_impl::gather_kernel<VAvx2>(g, d0, d1, d2, w, row);
}

}  // namespace vran::phy::simd
