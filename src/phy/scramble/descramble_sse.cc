// SSE4.1 tier of LLR descrambling: each byte of a Gold word is expanded
// to an 8-lane mask with broadcast + and + cmpeq, then the flip is
// subs(v ^ m, m) — v where m = 0, saturating 0 - v where m = -1.
#include <smmintrin.h>

#include "phy/scramble/descramble_simd.h"

namespace vran::phy::simd {

std::size_t descramble_sse(std::int16_t* llr, std::size_t n, GoldSequence& g) {
  const __m128i lane_bit =
      _mm_setr_epi16(0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const std::uint32_t w = g.next32();
    for (int q = 0; q < 4; ++q) {
      std::int16_t* p = llr + i + 8 * static_cast<std::size_t>(q);
      const __m128i bits = _mm_set1_epi16(static_cast<short>(w >> (8 * q)));
      const __m128i m = _mm_cmpeq_epi16(_mm_and_si128(bits, lane_bit), lane_bit);
      const __m128i v = _mm_loadu_si128(reinterpret_cast<__m128i*>(p));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p),
                       _mm_subs_epi16(_mm_xor_si128(v, m), m));
    }
  }
  return i;
}

}  // namespace vran::phy::simd
