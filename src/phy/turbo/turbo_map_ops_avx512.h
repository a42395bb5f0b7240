// VecOps implementation for 512-bit AVX-512 registers: four 8-state lane
// groups. Include only from translation units compiled with
// -mavx512f/-mavx512bw/-mavx512vl/-mavx512dq.
#pragma once

#include <immintrin.h>

#include <cstdint>
#include <cstring>

namespace vran::phy::turbo_internal {

struct Avx512Ops {
  using reg = __m512i;
  static constexpr int kWindows = 4;

  static reg load(const void* p) { return _mm512_load_si512(p); }
  static void store(void* p, reg v) { _mm512_store_si512(p, v); }
  static reg pattern(const std::uint8_t* p) { return load(p); }
  static reg mask(const std::uint16_t* p) { return load(p); }
  static reg sat_add(reg a, reg b) { return _mm512_adds_epi16(a, b); }
  static reg sat_sub(reg a, reg b) { return _mm512_subs_epi16(a, b); }
  static reg max16(reg a, reg b) { return _mm512_max_epi16(a, b); }
  static reg and16(reg a, reg b) { return _mm512_and_si512(a, b); }
  static reg shuffle(reg v, reg pat) { return _mm512_shuffle_epi8(v, pat); }
  static reg blend(reg a, reg b, reg m) {
    return _mm512_ternarylogic_epi32(m, b, a, 0xCA);  // bitwise m ? b : a
  }
  static reg spread(const std::int16_t* p) {
    // vpbroadcastq of the four values + per-lane byte shuffle selecting
    // word g in lane group g.
    alignas(64) static constexpr std::uint8_t kPick[64] = {
        0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
        2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3,
        4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5, 4, 5,
        6, 7, 6, 7, 6, 7, 6, 7, 6, 7, 6, 7, 6, 7, 6, 7};
    std::int64_t d;
    std::memcpy(&d, p, sizeof(d));
    return _mm512_shuffle_epi8(_mm512_set1_epi64(d),
                               _mm512_load_si512(kPick));
  }
  template <int N>
  static reg bsrli(reg v) {
    return _mm512_bsrli_epi128(v, N);
  }
  template <int N>
  static reg srai16(reg v) {
    return _mm512_srai_epi16(v, N);
  }
  static reg unpacklo16(reg a, reg b) { return _mm512_unpacklo_epi16(a, b); }
  static reg unpackhi16(reg a, reg b) { return _mm512_unpackhi_epi16(a, b); }
  static reg unpacklo32(reg a, reg b) { return _mm512_unpacklo_epi32(a, b); }
  static reg unpackhi32(reg a, reg b) { return _mm512_unpackhi_epi32(a, b); }
  static void store_steps4(std::int16_t* p, reg v) {
    // One word permute gathers word j of group g into slot j * 4 + g.
    alignas(64) static constexpr std::int16_t kStepMajor[32] = {
        0, 8, 16, 24, 1, 9, 17, 25, 2, 10, 18, 26, 3, 11, 19, 27,
        0, 0, 0,  0,  0, 0, 0,  0,  0, 0,  0,  0,  0, 0,  0,  0};
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(p),
        _mm512_castsi512_si256(
            _mm512_permutexvar_epi16(_mm512_load_si512(kStepMajor), v)));
  }
};

}  // namespace vran::phy::turbo_internal
