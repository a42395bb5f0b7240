// AVX-512 tier of the channel noise kernel: 16 complex samples per
// register. Same per-lane IEEE operation sequence as the scalar
// reference (noise_simd.h); builds with -mavx512f/bw/vl/dq
// -ffp-contract=off.
#include <immintrin.h>

#include "phy/channel/noise_impl.h"

namespace vran::phy::simd {
namespace {

struct Avx512NoiseOps {
  using I = __m512i;
  using F = __m512;
  using M = __mmask16;
  static constexpr std::size_t kLanes = 16;

  // unpacklo/hi interleave within 128-bit quarters: lanes 4q and 4q+1
  // are samples 2q and 2q+1 (first store), lanes 4q+2 and 4q+3 samples
  // 8+2q and 9+2q (second store).
  static I lane_words() {
    return _mm512_setr_epi32(0, 2, 16, 18, 4, 6, 20, 22, 8, 10, 24, 26, 12,
                             14, 28, 30);
  }
  static I set1(std::uint32_t v) {
    return _mm512_set1_epi32(static_cast<int>(v));
  }
  static F set1f(float v) { return _mm512_set1_ps(v); }
  static I add(I a, I b) { return _mm512_add_epi32(a, b); }
  static I sub(I a, I b) { return _mm512_sub_epi32(a, b); }
  static I mul(I a, I b) { return _mm512_mullo_epi32(a, b); }
  static I xor_(I a, I b) { return _mm512_xor_si512(a, b); }
  static I and_(I a, I b) { return _mm512_and_si512(a, b); }
  static I or_(I a, I b) { return _mm512_or_si512(a, b); }
  template <int N>
  static I srli(I a) {
    return _mm512_srli_epi32(a, N);
  }
  template <int N>
  static I slli(I a) {
    return _mm512_slli_epi32(a, N);
  }
  static F cvt(I a) { return _mm512_cvtepi32_ps(a); }
  static F as_float(I a) { return _mm512_castsi512_ps(a); }
  static I as_int(F a) { return _mm512_castps_si512(a); }
  static F addf(F a, F b) { return _mm512_add_ps(a, b); }
  static F subf(F a, F b) { return _mm512_sub_ps(a, b); }
  static F mulf(F a, F b) { return _mm512_mul_ps(a, b); }
  static F sqrtf(F a) { return _mm512_sqrt_ps(a); }
  static F xorf(F a, F b) { return _mm512_xor_ps(a, b); }
  static M gt(F a, F b) { return _mm512_cmp_ps_mask(a, b, _CMP_GT_OQ); }
  static M bit(I x, std::uint32_t b) {
    return _mm512_test_epi32_mask(x, set1(b));
  }
  static F select(M m, F t, F f) { return _mm512_mask_blend_ps(m, f, t); }
  static I select_i(M m, I t, I f) { return _mm512_mask_blend_epi32(m, f, t); }
  static I inc(I e, M m) { return _mm512_mask_add_epi32(e, m, e, set1(1)); }
  static void add_pairs(float* p, F re, F im) {
    const F lo = _mm512_unpacklo_ps(re, im);
    const F hi = _mm512_unpackhi_ps(re, im);
    _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p), lo));
    _mm512_storeu_ps(p + 16, _mm512_add_ps(_mm512_loadu_ps(p + 16), hi));
  }
};

}  // namespace

void add_noise_avx512(Cf* x, std::size_t n, std::uint32_t w0,
                             NoiseKey k, float sigma) {
  add_noise_impl<Avx512NoiseOps>(x, n, w0, k, sigma);
}

}  // namespace vran::phy::simd
