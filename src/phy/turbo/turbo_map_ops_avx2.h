// VecOps implementation for 256-bit AVX2 registers: two 8-state lane
// groups side by side (vpshufb operates per 128-bit lane, which is
// exactly the state-group granularity). Include only from translation
// units compiled with -mavx2.
#pragma once

#include <immintrin.h>

#include <cstdint>
#include <cstring>

namespace vran::phy::turbo_internal {

struct Avx2Ops {
  using reg = __m256i;
  static constexpr int kWindows = 2;

  static reg load(const void* p) {
    return _mm256_load_si256(static_cast<const __m256i*>(p));
  }
  static void store(void* p, reg v) {
    _mm256_store_si256(static_cast<__m256i*>(p), v);
  }
  static reg pattern(const std::uint8_t* p) { return load(p); }
  static reg mask(const std::uint16_t* p) { return load(p); }
  static reg sat_add(reg a, reg b) { return _mm256_adds_epi16(a, b); }
  static reg sat_sub(reg a, reg b) { return _mm256_subs_epi16(a, b); }
  static reg max16(reg a, reg b) { return _mm256_max_epi16(a, b); }
  static reg and16(reg a, reg b) { return _mm256_and_si256(a, b); }
  static reg shuffle(reg v, reg pat) { return _mm256_shuffle_epi8(v, pat); }
  static reg blend(reg a, reg b, reg m) {
    return _mm256_blendv_epi8(a, b, m);
  }
  static reg spread(const std::int16_t* p) {
    // vpbroadcastd of the two values + per-lane byte shuffle selecting
    // word 0 in lane group 0 and word 1 in group 1.
    alignas(32) static constexpr std::uint8_t kPick[32] = {
        0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
        2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3};
    std::int32_t d;
    std::memcpy(&d, p, sizeof(d));
    return _mm256_shuffle_epi8(
        _mm256_set1_epi32(d),
        _mm256_load_si256(reinterpret_cast<const __m256i*>(kPick)));
  }
  template <int N>
  static reg bsrli(reg v) {
    return _mm256_bsrli_epi128(v, N);
  }
  template <int N>
  static reg srai16(reg v) {
    return _mm256_srai_epi16(v, N);
  }
  static reg unpacklo16(reg a, reg b) { return _mm256_unpacklo_epi16(a, b); }
  static reg unpackhi16(reg a, reg b) { return _mm256_unpackhi_epi16(a, b); }
  static reg unpacklo32(reg a, reg b) { return _mm256_unpacklo_epi32(a, b); }
  static reg unpackhi32(reg a, reg b) { return _mm256_unpackhi_epi32(a, b); }
  static void store_steps4(std::int16_t* p, reg v) {
    // Interleave group 0's and group 1's four words: step-major pairs.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                     _mm_unpacklo_epi16(_mm256_castsi256_si128(v),
                                        _mm256_extracti128_si256(v, 1)));
  }
};

}  // namespace vran::phy::turbo_internal
