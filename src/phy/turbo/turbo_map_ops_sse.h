// VecOps implementation for 128-bit SSE registers: one 8-state lane
// group. Reference implementation of the VecOps contract documented in
// turbo_map_impl.h. Include only from translation units whose compile
// flags allow SSE4.1 (the repo baseline).
#pragma once

#include <immintrin.h>

#include <cstdint>

namespace vran::phy::turbo_internal {

struct SseOps {
  using reg = __m128i;
  static constexpr int kWindows = 1;

  static reg load(const void* p) {
    return _mm_load_si128(static_cast<const __m128i*>(p));
  }
  static void store(void* p, reg v) {
    _mm_store_si128(static_cast<__m128i*>(p), v);
  }
  static reg pattern(const std::uint8_t* p) { return load(p); }
  static reg mask(const std::uint16_t* p) { return load(p); }
  static reg sat_add(reg a, reg b) { return _mm_adds_epi16(a, b); }
  static reg sat_sub(reg a, reg b) { return _mm_subs_epi16(a, b); }
  static reg max16(reg a, reg b) { return _mm_max_epi16(a, b); }
  static reg and16(reg a, reg b) { return _mm_and_si128(a, b); }
  static reg shuffle(reg v, reg pat) { return _mm_shuffle_epi8(v, pat); }
  /// m ? b : a, per byte (m holds 0x0000 / 0xFFFF words).
  static reg blend(reg a, reg b, reg m) { return _mm_blendv_epi8(a, b, m); }
  static reg spread(const std::int16_t* p) { return _mm_set1_epi16(p[0]); }
  template <int N>
  static reg bsrli(reg v) {
    return _mm_srli_si128(v, N);
  }
  template <int N>
  static reg srai16(reg v) {
    return _mm_srai_epi16(v, N);
  }
  static reg unpacklo16(reg a, reg b) { return _mm_unpacklo_epi16(a, b); }
  static reg unpackhi16(reg a, reg b) { return _mm_unpackhi_epi16(a, b); }
  static reg unpacklo32(reg a, reg b) { return _mm_unpacklo_epi32(a, b); }
  static reg unpackhi32(reg a, reg b) { return _mm_unpackhi_epi32(a, b); }
  /// Words 0-3 of each lane group are four consecutive trellis steps;
  /// store them step-major (`p[step * kWindows + group]`).
  static void store_steps4(std::int16_t* p, reg v) {
    _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
  }
};

}  // namespace vran::phy::turbo_internal
