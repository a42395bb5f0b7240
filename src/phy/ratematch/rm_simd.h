// Internal per-tier rate-matching kernels, one translation unit per tier
// with per-file ISA flags (rm_{sse,avx2,avx512}.cc), reached only through
// RateMatcher's runtime dispatch. The shared kernel bodies live in
// rm_kernels.h, written once over a per-tier register type.
//
// Geometry (36.212 §5.1.4.1, DESIGN.md §5j): a stream of D = K + 4 bits
// is padded with N = 32R - D leading nulls to y-order y = 0 .. 32R - 1
// and read out column by column. Slot j = c*R + r of v0 and v1 holds
// y = 32r + P[c]; slot j of v2 holds y = (32r + P[c] + 1) mod 32R. The
// circular buffer is w = [v0 | v1[0] v2[0] v1[1] v2[1] ...]; reading it
// as int32 pairs, pair j of the second part is (v1, v2) at slot j.
//
// Seen from y-order, v0 is therefore a 32 x R matrix (row c = the
// R-element column that starts at w[c*R]) whose transpose, with its
// rows taken in P^-1 order, is the stream. The kernels move whole
// blocks of B rows at a time through in-register transposes and return
// the first row they did not handle; the dispatcher hands the rest to
// the next narrower tier and finally to the scalar row loop.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vran::phy::simd {

/// What the kernels need of one block size's geometry.
struct RmGeometry {
  int rows = 0;   ///< R
  int kp = 0;     ///< 32 * R
  int nulls = 0;  ///< N = kp - (K + 4)
  /// col_base[p] = P^-1[p] * R: the first slot of the column whose
  /// y-order residue is p.
  const std::int32_t* col_base = nullptr;
};

/// HARQ combining over one contiguous run: w[i] = sat_add16_sym(w[i],
/// llr[i]) for i < n. Returns how many elements were done (all of them
/// at AVX-512, a multiple of the register width below it).
std::size_t add_sym_sse(std::int16_t* w, const std::int16_t* llr,
                        std::size_t n);
std::size_t add_sym_avx2(std::int16_t* w, const std::int16_t* llr,
                         std::size_t n);
std::size_t add_sym_avx512(std::int16_t* w, const std::int16_t* llr,
                           std::size_t n);

/// Soft circular buffer -> (d0, d1, d2) triples for whole blocks of
/// rows from `row` on (8, 16 or 32 rows per block). Returns the first
/// row not written.
int triples_sse(const RmGeometry& g, const std::int16_t* w,
                std::int16_t* triples, int row);
int triples_avx2(const RmGeometry& g, const std::int16_t* w,
                 std::int16_t* triples, int row);
int triples_avx512(const RmGeometry& g, const std::int16_t* w,
                   std::int16_t* triples, int row);

/// Codeword bit streams -> circular buffer (the transmit-side
/// sub-block interleave) for whole blocks of 16 (32 at AVX-512) rows
/// from `row` on, never touching row 0 or row R - 1, whose reads would
/// leave the streams. Returns the first row not written.
int gather_sse(const RmGeometry& g, const std::uint8_t* d0,
               const std::uint8_t* d1, const std::uint8_t* d2,
               std::uint8_t* w, int row);
int gather_avx2(const RmGeometry& g, const std::uint8_t* d0,
                const std::uint8_t* d1, const std::uint8_t* d2,
                std::uint8_t* w, int row);
int gather_avx512(const RmGeometry& g, const std::uint8_t* d0,
                  const std::uint8_t* d1, const std::uint8_t* d2,
                  std::uint8_t* w, int row);

}  // namespace vran::phy::simd
