// Internal per-tier kernel entry points for the OFDM chain. Each tier
// lives in its own translation unit with per-file ISA flags
// (ofdm_simd_{sse,avx2,avx512}.cc) and is reached only through runtime
// dispatch in fft.cc / ofdm.cc.
//
// Every kernel here is bound by the float exactness contract (fft.h /
// TESTING.md): identical arithmetic schedule at every tier, no FMA
// contraction, lanes carry independent elements only. The scalar
// reference implementations live in fft.cc (butterflies) and ofdm.cc
// (convert/quantize); a SIMD kernel plus its scalar tail must execute
// the same per-element operation sequence as those references.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "phy/modulation/modulation.h"
#include "phy/ofdm/fft.h"

namespace vran::phy::simd {

/// The per-element Q12 quantizer every tier shares (scalar path and the
/// SIMD kernels' remainder tails): clamp to the int16 range with fmax
/// then fmin (NaN collapses to the lower bound, exactly like
/// MAXPS/MINPS with the value in the first operand), then round
/// half-to-even — nearbyintf under the default rounding mode computes
/// the same result CVTPS2DQ does under the default MXCSR.
inline std::int16_t quantize_q12(float v) {
  v = std::fmax(v, -32768.0f);
  v = std::fmin(v, 32767.0f);
  return static_cast<std::int16_t>(
      static_cast<std::int32_t>(std::nearbyintf(v)));
}

/// Complexes per vector register at the SSE / AVX2 tiers (the kernels'
/// minimum n).
inline constexpr std::size_t kSseComplexLanes = 2;
inline constexpr std::size_t kAvx2ComplexLanes = 4;

/// Next value of a counter that runs in bit-reversed order over the bits
/// below `top` (a power of two): add one at the top bit, carry down.
inline std::size_t reversed_next(std::size_t r, std::size_t top) {
  std::size_t bit = top >> 1;
  while ((r & bit) != 0) {
    r ^= bit;
    bit >>= 1;
  }
  return r | bit;
}

// --- FFT kernels -------------------------------------------------------------

/// One direction's stage twiddles, pre-split for the complex multiply
/// v = x * w as `x * re + swap(x) * im` (DESIGN.md §5g). The stage with
/// half-length h (h = 1, 2, 4, ..., n/2) starts at complex offset h, so
/// every stage of 8 or more entries starts 64-byte aligned, and holds h
/// entries k, w = e^(∓2πi·k·(n/2h)/n) (minus sign forward; the inverse
/// is the conjugate):
///   re[2(h+k)] = re[2(h+k)+1] = Re w
///   im[2(h+k)] = -Im w,  im[2(h+k)+1] = Im w
/// so x * re + swap(x) * im = (xr·wr + (−(xi·wi)), xi·wr + xr·wi), which
/// is exactly the scalar xr·wr − xi·wi, xr·wi + xi·wr.
struct FftTwiddles {
  const float* re;
  const float* im;
};

/// Minimum transform size of the AVX-512 kernel: one 8 x 8 block.
inline constexpr std::size_t kAvx512FftBlock = 64;

/// The whole AVX-512 transform, `in` -> `out` (n >= kAvx512FftBlock):
/// per 8 x 8 block, eight row loads in bit-reversed row order, the
/// stages h = 1, 2, 4 across registers, one complex transpose and eight
/// row stores; then the wide stages over `out`. `normalize` multiplies
/// the last stage's outputs by 1/n before they are stored.
void fft_avx512(const Cf* in, Cf* out, std::size_t n, FftTwiddles tw,
                bool normalize);

/// Every radix-2 stage over bit-reversed `data` in place: stages whose
/// half-length fits inside one register run as in-register shuffle
/// butterflies, wider stages vectorize the contiguous inner k loop.
/// Requires n >= the tier's complex lanes. `normalize` as above.
void fft_pass_sse(Cf* data, std::size_t n, FftTwiddles tw, bool normalize);
void fft_pass_avx2(Cf* data, std::size_t n, FftTwiddles tw, bool normalize);

// --- Elementwise helpers ----------------------------------------------------

/// out[i] = { in[i].i * scale, in[i].q * scale } — Q12 ingress convert
/// (subcarrier map runs it once per contiguous half around DC).
void q12_to_cf_sse(const IqSample* in, Cf* out, std::size_t n, float scale);
void q12_to_cf_avx2(const IqSample* in, Cf* out, std::size_t n, float scale);
void q12_to_cf_avx512(const IqSample* in, Cf* out, std::size_t n, float scale);

/// out[i] = quantize(in[i] * unscale): clamp to int16 range then round
/// half-to-even (matching the scalar quantizer in ofdm.cc and the
/// vector cvtps rounding under the default FP environment).
void cf_to_q12_sse(const Cf* in, IqSample* out, std::size_t n, float unscale);
void cf_to_q12_avx2(const Cf* in, IqSample* out, std::size_t n, float unscale);
void cf_to_q12_avx512(const Cf* in, IqSample* out, std::size_t n,
                      float unscale);

}  // namespace vran::phy::simd
