// AVX2 tier of the channel noise kernel: 8 complex samples per register.
// Same per-lane IEEE operation sequence as the scalar reference
// (noise_simd.h); builds with -mavx2 -ffp-contract=off.
#include <immintrin.h>

#include "phy/channel/noise_impl.h"

namespace vran::phy::simd {
namespace {

struct Avx2NoiseOps {
  using I = __m256i;
  using F = __m256;
  using M = __m256i;
  static constexpr std::size_t kLanes = 8;

  // unpacklo/hi interleave within 128-bit halves: lanes 0,1,4,5 land in
  // the first store (samples 0-3) and lanes 2,3,6,7 in the second.
  static I lane_words() {
    return _mm256_setr_epi32(0, 2, 8, 10, 4, 6, 12, 14);
  }
  static I set1(std::uint32_t v) {
    return _mm256_set1_epi32(static_cast<int>(v));
  }
  static F set1f(float v) { return _mm256_set1_ps(v); }
  static I add(I a, I b) { return _mm256_add_epi32(a, b); }
  static I sub(I a, I b) { return _mm256_sub_epi32(a, b); }
  static I mul(I a, I b) { return _mm256_mullo_epi32(a, b); }
  static I xor_(I a, I b) { return _mm256_xor_si256(a, b); }
  static I and_(I a, I b) { return _mm256_and_si256(a, b); }
  static I or_(I a, I b) { return _mm256_or_si256(a, b); }
  template <int N>
  static I srli(I a) {
    return _mm256_srli_epi32(a, N);
  }
  template <int N>
  static I slli(I a) {
    return _mm256_slli_epi32(a, N);
  }
  static F cvt(I a) { return _mm256_cvtepi32_ps(a); }
  static F as_float(I a) { return _mm256_castsi256_ps(a); }
  static I as_int(F a) { return _mm256_castps_si256(a); }
  static F addf(F a, F b) { return _mm256_add_ps(a, b); }
  static F subf(F a, F b) { return _mm256_sub_ps(a, b); }
  static F mulf(F a, F b) { return _mm256_mul_ps(a, b); }
  static F sqrtf(F a) { return _mm256_sqrt_ps(a); }
  static F xorf(F a, F b) { return _mm256_xor_ps(a, b); }
  static M gt(F a, F b) {
    return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_GT_OQ));
  }
  static M bit(I x, std::uint32_t b) {
    const I vb = set1(b);
    return _mm256_cmpeq_epi32(_mm256_and_si256(x, vb), vb);
  }
  static F select(M m, F t, F f) {
    return _mm256_blendv_ps(f, t, _mm256_castsi256_ps(m));
  }
  static I select_i(M m, I t, I f) { return _mm256_blendv_epi8(f, t, m); }
  static I inc(I e, M m) { return _mm256_sub_epi32(e, m); }
  static void add_pairs(float* p, F re, F im) {
    const F lo = _mm256_unpacklo_ps(re, im);
    const F hi = _mm256_unpackhi_ps(re, im);
    _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), lo));
    _mm256_storeu_ps(p + 8, _mm256_add_ps(_mm256_loadu_ps(p + 8), hi));
  }
};

}  // namespace

void add_noise_avx2(Cf* x, std::size_t n, std::uint32_t w0,
                           NoiseKey k, float sigma) {
  add_noise_impl<Avx2NoiseOps>(x, n, w0, k, sigma);
}

}  // namespace vran::phy::simd
