// AVX-512 tier of LLR descrambling: one Gold word is one lane mask.
#include <immintrin.h>

#include "phy/scramble/descramble_simd.h"

namespace vran::phy::simd {

std::size_t descramble_avx512(std::int16_t* llr, std::size_t n,
                              GoldSequence& g) {
  const __m512i zero = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __mmask32 m = g.next32();
    const __m512i v = _mm512_loadu_si512(llr + i);
    _mm512_storeu_si512(llr + i, _mm512_mask_subs_epi16(v, m, zero, v));
  }
  return i;
}

}  // namespace vran::phy::simd
