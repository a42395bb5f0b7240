// Internal per-tier max-log demap kernels, one translation unit per tier
// with per-file ISA flags (demap_{sse,avx2,avx512}.cc), reached only
// through demodulate_llr_into's runtime dispatch.
//
// Exactness contract (DESIGN.md §5i): every kernel writes the bytes the
// scalar axis_llrs path writes.
//  * Distances: each int32 lane holds one axis value y (I and Q lanes
//    alternate, in input order). For level l the kernel forms
//    e = l^2 - 2*y*l = (y - l)^2 - y^2 with one pmaddwd and one add; the
//    y^2 term cancels in the per-bit difference, so
//    min_{b=0} e - min_{b=1} e equals the scalar int64 d0 - d1 exactly
//    (|2*y*l| <= 2 * 32768 * 4424 and the squares fit int32).
//  * Scale: the int32 difference converts exactly to double and is
//    multiplied by the same llr_scale / n0_q12 double, then clamped to
//    +-kLlrMagnitudeCap with max/min.
//  * Rounding: std::lround's half-away-from-zero, from truncation:
//    r = trunc(x) + trunc(2 * (x - trunc(x))), exact for |x| < 2^52, so
//    the result never depends on the MXCSR rounding mode.
//  * Narrowing: saturating pack to int16 (a no-op after the clamp).
//  * Placement: after the pack, the I and Q LLRs of one bit of one symbol
//    form a 32-bit pair; QPSK / 16QAM / 64QAM interleave 1 / 2 / 3 such
//    pair vectors with in-register permutes and whole-register stores.
// Each kernel handles a multiple of its block of symbols and returns how
// many it did; the dispatcher finishes the tail on the scalar path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "phy/modulation/modulation.h"

namespace vran::phy::simd {

/// Per-axis constants of one demap call.
struct DemapAxis {
  int bits = 1;                 ///< axis bits: 1 (QPSK), 2 (16QAM), 3 (64QAM)
  std::int32_t madd_2l[8] = {}; ///< int16 pair (-2 * level, 0) for pmaddwd
  std::int32_t level_sq[8] = {};
  double inv_n0_scale = 0;      ///< llr_scale / n0_q12
};

/// Symbols per loop iteration at each tier.
inline constexpr std::size_t kDemapSseBlock = 4;
inline constexpr std::size_t kDemapAvx2Block = 8;
inline constexpr std::size_t kDemapAvx512Block = 16;

std::size_t demap_sse(const IqSample* in, std::size_t n, const DemapAxis& a,
                      std::int16_t* out);
std::size_t demap_avx2(const IqSample* in, std::size_t n, const DemapAxis& a,
                       std::int16_t* out);
std::size_t demap_avx512(const IqSample* in, std::size_t n, const DemapAxis& a,
                         std::int16_t* out);

}  // namespace vran::phy::simd
