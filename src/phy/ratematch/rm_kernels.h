// Shared bodies of the per-tier rate-matching kernels (rm_simd.h),
// included only by rm_{sse,avx2,avx512}.cc. Each tier supplies a
// register type V whose operations act on every 128-bit lane at once:
//
//   V::reg, V::kW               register, 128-bit lanes per register
//   V::load(p)                  unaligned whole-register load
//   V::store_lane<Q>(p, v)      16-byte store of lane Q
//   V::lo8 .. V::hi64           per-lane unpacks (punpck{l,h}{bw,wd,dq,qdq})
//   V::load_bytes(p, stride)    kW 16-byte row pieces for the byte
//                               transpose: lane q is half q % kByteHalves
//                               of the row kByteGroups' group q / kByteHalves
//                               (the groups lie `stride` bytes apart)
//   V::interleave3(t, x, out)   8*kW triples from a d0 run and a pair run
//
// Every lane runs the same transpose network, so one body serves 8, 16
// and 32 rows per block; only the final interleave differs per tier.
// The fixed-count loops are fully unrolled (#pragma GCC unroll) so the
// register arrays stay in registers instead of round-tripping the stack.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "phy/ratematch/rm_simd.h"

namespace vran::phy::simd::rm_impl {

/// Calls f(std::integral_constant<int, q>) for q = 0 .. W-1, so lane
/// indices stay compile-time immediates (decltype(q)::value).
template <int W, class F>
inline void for_lanes(F&& f) {
  [&]<int... Q>(std::integer_sequence<int, Q...>) {
    (f(std::integral_constant<int, Q>{}), ...);
  }(std::make_integer_sequence<int, W>{});
}

/// 8 x 8 int16 transpose in every lane: in, c[j] holds column j of rows
/// 0..7; out, c[k] holds row k of columns 0..7.
template <class V>
inline void transpose8x8_16(typename V::reg c[8]) {
  typename V::reg t[8], u[8];
  #pragma GCC unroll 16
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = V::lo16(c[2 * i], c[2 * i + 1]);      // rows 0..3
    t[2 * i + 1] = V::hi16(c[2 * i], c[2 * i + 1]);  // rows 4..7
  }
#pragma GCC unroll 16
  for (int h = 0; h < 2; ++h) {  // columns 0..3, then 4..7
    u[4 * h + 0] = V::lo32(t[4 * h], t[4 * h + 2]);      // rows 0, 1
    u[4 * h + 1] = V::hi32(t[4 * h], t[4 * h + 2]);      // rows 2, 3
    u[4 * h + 2] = V::lo32(t[4 * h + 1], t[4 * h + 3]);  // rows 4, 5
    u[4 * h + 3] = V::hi32(t[4 * h + 1], t[4 * h + 3]);  // rows 6, 7
  }
  #pragma GCC unroll 16
  for (int i = 0; i < 4; ++i) {
    c[2 * i] = V::lo64(u[i], u[i + 4]);
    c[2 * i + 1] = V::hi64(u[i], u[i + 4]);
  }
}

/// 4 x 4 int32 transpose in every lane (the (v1, v2) pairs).
template <class V>
inline void transpose4x4_32(typename V::reg c[4]) {
  const auto t0 = V::lo32(c[0], c[1]);  // rows 0, 1
  const auto t1 = V::hi32(c[0], c[1]);  // rows 2, 3
  const auto t2 = V::lo32(c[2], c[3]);
  const auto t3 = V::hi32(c[2], c[3]);
  c[0] = V::lo64(t0, t2);
  c[1] = V::hi64(t0, t2);
  c[2] = V::lo64(t1, t3);
  c[3] = V::hi64(t1, t3);
}

/// 16 x 16 byte transpose in every lane: in, r[i] holds row i of columns
/// 0..15; out, r[j] holds column j of rows 0..15.
template <class V>
inline void transpose16x16_8(typename V::reg r[16]) {
  typename V::reg a[16], b[16];
  #pragma GCC unroll 16
  for (int i = 0; i < 8; ++i) {
    a[i] = V::lo8(r[2 * i], r[2 * i + 1]);      // columns 0..7
    a[8 + i] = V::hi8(r[2 * i], r[2 * i + 1]);  // columns 8..15
  }
  // b[4m + i]: columns 4m .. 4m+3 of rows 4i .. 4i+3.
  #pragma GCC unroll 16
  for (int h = 0; h < 2; ++h) {
    #pragma GCC unroll 16
    for (int i = 0; i < 4; ++i) {
      b[8 * h + i] = V::lo16(a[8 * h + 2 * i], a[8 * h + 2 * i + 1]);
      b[8 * h + 4 + i] = V::hi16(a[8 * h + 2 * i], a[8 * h + 2 * i + 1]);
    }
  }
  // a[4m + 2l + i]: columns 4m + 2l + {0, 1} of rows 8i .. 8i+7.
  #pragma GCC unroll 16
  for (int m = 0; m < 4; ++m) {
    #pragma GCC unroll 16
    for (int i = 0; i < 2; ++i) {
      a[4 * m + i] = V::lo32(b[4 * m + 2 * i], b[4 * m + 2 * i + 1]);
      a[4 * m + 2 + i] = V::hi32(b[4 * m + 2 * i], b[4 * m + 2 * i + 1]);
    }
  }
  #pragma GCC unroll 16
  for (int m = 0; m < 4; ++m) {
    #pragma GCC unroll 16
    for (int l = 0; l < 2; ++l) {
      r[4 * m + 2 * l] = V::lo64(a[4 * m + 2 * l], a[4 * m + 2 * l + 1]);
      r[4 * m + 2 * l + 1] = V::hi64(a[4 * m + 2 * l], a[4 * m + 2 * l + 1]);
    }
  }
}

/// Word f of the 3 * L interleaved output comes from: source 0 = the d0
/// run, word f / 3; otherwise the pair run, word 2 * (f / 3) + f % 3 - 1.
struct TripleSource {
  int src;
  int word;
};
constexpr TripleSource triple_source(int f) {
  const int t = f / 3, comp = f % 3;
  if (comp == 0) return {0, t};
  return {1, 2 * t + comp - 1};
}

/// pshufb control for one 8-triple group: output register j (0..2),
/// from source s (0 = d0 words, 1 = pairs 0..3, 2 = pairs 4..7);
/// 0x80 zeroes the byte so the three shuffles OR together.
constexpr std::array<std::int8_t, 16> interleave_pshufb(int j, int s) {
  std::array<std::int8_t, 16> m{};
    for (int b = 0; b < 16; ++b) {
    const TripleSource ts = triple_source(8 * j + b / 2);
    const int reg = ts.src == 0 ? 0 : 1 + ts.word / 8;
    const int word = ts.src == 0 ? ts.word : ts.word % 8;
    m[static_cast<std::size_t>(b)] =
        reg == s ? static_cast<std::int8_t>(2 * word + b % 2)
                 : static_cast<std::int8_t>(-128);
  }
  return m;
}

/// interleave_pshufb(j, s) for every output register j and source s.
using PshufbTable = std::array<std::array<std::array<std::int8_t, 16>, 3>, 3>;
constexpr PshufbTable interleave_pshufb_table() {
  PshufbTable t{};
    for (int j = 0; j < 3; ++j) {
        for (int s = 0; s < 3; ++s) {
      t[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
          interleave_pshufb(j, s);
    }
  }
  return t;
}

/// Soft circular buffer -> triples for whole blocks of 8 * kW rows.
/// Per block: transpose v0 into a y-ordered d0 run and the (v1, v2)
/// pairs into a y-ordered pair run P, then interleave
/// triple(y) = (d0[y], P[y].v1, P[y - 1].v2) — the v2 read of pair y - 1
/// is d2 at y, because v2 holds y + 1 where v1 holds y.
template <class V>
int triples_kernel(const RmGeometry& g, const std::int16_t* w,
                   std::int16_t* triples, int row) {
  using R = typename V::reg;
  constexpr int W = V::kW;
  constexpr int kRows = 8 * W;
  constexpr int kBlockY = 32 * kRows;
  constexpr int kStep = 8 * W;
  alignas(64) std::int16_t d0[kBlockY];
  // Pair y0 - 1, then pairs y0 .. y0 + kBlockY - 1.
  alignas(64) std::int16_t pr[2 * kBlockY + 2];
  const std::int16_t* pairs = w + g.kp;
  for (; row + kRows <= g.rows; row += kRows) {
    for (int p0 = 0; p0 < 32; p0 += 8) {
      R c[8];
      #pragma GCC unroll 16
      for (int j = 0; j < 8; ++j) {
        c[j] = V::load(w + g.col_base[p0 + j] + row);
      }
      transpose8x8_16<V>(c);
      #pragma GCC unroll 16
      for (int k = 0; k < 8; ++k) {
        for_lanes<W>([&](auto q) {
          constexpr int Q = decltype(q)::value;
          V::template store_lane<Q>(d0 + 32 * (8 * Q + k) + p0, c[k]);
        });
      }
    }
    for (int p0 = 0; p0 < 32; p0 += 4) {
      #pragma GCC unroll 16
      for (int h = 0; h < 2; ++h) {
        R c[4];
        #pragma GCC unroll 16
        for (int j = 0; j < 4; ++j) {
          c[j] = V::load(pairs + 2 * (g.col_base[p0 + j] + row + 4 * W * h));
        }
        transpose4x4_32<V>(c);
        #pragma GCC unroll 16
        for (int k = 0; k < 4; ++k) {
          for_lanes<W>([&](auto q) {
            constexpr int Q = decltype(q)::value;
            V::template store_lane<Q>(
                pr + 2 + 2 * (32 * (4 * W * h + 4 * Q + k) + p0), c[k]);
          });
        }
      }
    }
    // Pair y0 - 1 (mod K_pi) sits in the column with residue 31.
    const std::int16_t* prev =
        pairs + 2 * (g.col_base[31] + (row > 0 ? row : g.rows) - 1);
    pr[0] = prev[0];
    pr[1] = prev[1];
    const int y0 = 32 * row;
    int y = y0 > g.nulls ? y0 : g.nulls;
    for (; y + kStep <= y0 + kBlockY; y += kStep) {
      V::interleave3(d0 + (y - y0), pr + 2 + 2 * (y - y0),
                     triples + 3 * (y - g.nulls));
    }
    for (; y < y0 + kBlockY; ++y) {
      const int i = y - y0;
      std::int16_t* o = triples + 3 * (y - g.nulls);
      o[0] = d0[i];
      o[1] = pr[2 + 2 * i];
      o[2] = pr[2 * i + 1];
    }
  }
  return row;
}

/// Codeword streams -> circular buffer for whole blocks of
/// 16 * kByteGroups rows, from `row` (>= 1) up to row R - 2: the
/// inverse transposes, with v1 and v2 zipped into pairs on the way out.
template <class V>
int gather_kernel(const RmGeometry& g, const std::uint8_t* s0,
                  const std::uint8_t* s1, const std::uint8_t* s2,
                  std::uint8_t* w, int row) {
  using R = typename V::reg;
  constexpr int W = V::kW;
  constexpr int H = V::kByteHalves;
  constexpr int kRows = 16 * V::kByteGroups;
  constexpr std::ptrdiff_t kGroupStride = 32 * 16;
  std::uint8_t* pairs = w + g.kp;
  for (; row + kRows <= g.rows - 1; row += kRows) {
    #pragma GCC unroll 16
    for (int hh = 0; hh < 2 / H; ++hh) {
      // Rows start at y = 32 * row >= 32 > N, so d = y - N >= 0; the v2
      // stream reads d + 1, which stays inside the stream because row
      // R - 1 (where y + 1 reaches 32R) is left to the scalar loop.
      const std::ptrdiff_t y = 32 * row + 16 * hh - g.nulls;
      const auto slot = [&](int q, int j) {
        return g.col_base[16 * (hh + q % H) + j] + row + 16 * (q / H);
      };
      R r[16];
      #pragma GCC unroll 16
      for (int i = 0; i < 16; ++i) {
        r[i] = V::load_bytes(s0 + y + 32 * i, kGroupStride);
      }
      transpose16x16_8<V>(r);
      #pragma GCC unroll 16
      for (int j = 0; j < 16; ++j) {
        for_lanes<W>([&](auto q) {
          constexpr int Q = decltype(q)::value;
          V::template store_lane<Q>(w + slot(Q, j), r[j]);
        });
      }
      R r2[16];
      #pragma GCC unroll 16
      for (int i = 0; i < 16; ++i) {
        r[i] = V::load_bytes(s1 + y + 32 * i, kGroupStride);
        r2[i] = V::load_bytes(s2 + y + 1 + 32 * i, kGroupStride);
      }
      transpose16x16_8<V>(r);
      transpose16x16_8<V>(r2);
      #pragma GCC unroll 16
      for (int j = 0; j < 16; ++j) {
        const R lo = V::lo8(r[j], r2[j]);
        const R hi = V::hi8(r[j], r2[j]);
        for_lanes<W>([&](auto q) {
          constexpr int Q = decltype(q)::value;
          std::uint8_t* p = pairs + 2 * slot(Q, j);
          V::template store_lane<Q>(p, lo);
          V::template store_lane<Q>(p + 16, hi);
        });
      }
    }
  }
  return row;
}

}  // namespace vran::phy::simd::rm_impl
