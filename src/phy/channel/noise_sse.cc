// SSE4.1 tier of the channel noise kernel: 4 complex samples per
// register. Same per-lane IEEE operation sequence as the scalar
// reference (noise_simd.h); builds with -ffp-contract=off.
#include <immintrin.h>

#include "phy/channel/noise_impl.h"

namespace vran::phy::simd {
namespace {

struct SseNoiseOps {
  using I = __m128i;
  using F = __m128;
  using M = __m128i;
  static constexpr std::size_t kLanes = 4;

  static I lane_words() { return _mm_setr_epi32(0, 2, 4, 6); }
  static I set1(std::uint32_t v) {
    return _mm_set1_epi32(static_cast<int>(v));
  }
  static F set1f(float v) { return _mm_set1_ps(v); }
  static I add(I a, I b) { return _mm_add_epi32(a, b); }
  static I sub(I a, I b) { return _mm_sub_epi32(a, b); }
  static I mul(I a, I b) { return _mm_mullo_epi32(a, b); }
  static I xor_(I a, I b) { return _mm_xor_si128(a, b); }
  static I and_(I a, I b) { return _mm_and_si128(a, b); }
  static I or_(I a, I b) { return _mm_or_si128(a, b); }
  template <int N>
  static I srli(I a) {
    return _mm_srli_epi32(a, N);
  }
  template <int N>
  static I slli(I a) {
    return _mm_slli_epi32(a, N);
  }
  static F cvt(I a) { return _mm_cvtepi32_ps(a); }
  static F as_float(I a) { return _mm_castsi128_ps(a); }
  static I as_int(F a) { return _mm_castps_si128(a); }
  static F addf(F a, F b) { return _mm_add_ps(a, b); }
  static F subf(F a, F b) { return _mm_sub_ps(a, b); }
  static F mulf(F a, F b) { return _mm_mul_ps(a, b); }
  static F sqrtf(F a) { return _mm_sqrt_ps(a); }
  static F xorf(F a, F b) { return _mm_xor_ps(a, b); }
  static M gt(F a, F b) { return _mm_castps_si128(_mm_cmpgt_ps(a, b)); }
  static M bit(I x, std::uint32_t b) {
    const I vb = set1(b);
    return _mm_cmpeq_epi32(_mm_and_si128(x, vb), vb);
  }
  static F select(M m, F t, F f) {
    return _mm_blendv_ps(f, t, _mm_castsi128_ps(m));
  }
  static I select_i(M m, I t, I f) { return _mm_blendv_epi8(f, t, m); }
  static I inc(I e, M m) { return _mm_sub_epi32(e, m); }
  static void add_pairs(float* p, F re, F im) {
    _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), _mm_unpacklo_ps(re, im)));
    _mm_storeu_ps(p + 4,
                  _mm_add_ps(_mm_loadu_ps(p + 4), _mm_unpackhi_ps(re, im)));
  }
};

}  // namespace

void add_noise_sse(Cf* x, std::size_t n, std::uint32_t w0,
                          NoiseKey k, float sigma) {
  add_noise_impl<SseNoiseOps>(x, n, w0, k, sigma);
}

}  // namespace vran::phy::simd
