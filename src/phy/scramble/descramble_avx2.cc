// AVX2 tier of LLR descrambling: each 16-bit half of a Gold word is
// expanded to a lane mask with broadcast + and + cmpeq, then the
// flip is subs(v ^ m, m) — v where m = 0, saturating 0 - v where m = -1.
#include <immintrin.h>

#include "phy/scramble/descramble_simd.h"

namespace vran::phy::simd {

std::size_t descramble_avx2(std::int16_t* llr, std::size_t n,
                            GoldSequence& g) {
  const __m256i lane_bit = _mm256_setr_epi16(
      0x0001, 0x0002, 0x0004, 0x0008, 0x0010, 0x0020, 0x0040, 0x0080, 0x0100,
      0x0200, 0x0400, 0x0800, 0x1000, 0x2000, 0x4000,
      static_cast<short>(0x8000));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const std::uint32_t w = g.next32();
    for (int h = 0; h < 2; ++h) {
      std::int16_t* p = llr + i + 16 * static_cast<std::size_t>(h);
      const __m256i bits =
          _mm256_set1_epi16(static_cast<short>(w >> (16 * h)));
      const __m256i m =
          _mm256_cmpeq_epi16(_mm256_and_si256(bits, lane_bit), lane_bit);
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<__m256i*>(p));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p),
                          _mm256_subs_epi16(_mm256_xor_si256(v, m), m));
    }
  }
  return i;
}

}  // namespace vran::phy::simd
