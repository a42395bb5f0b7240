// Shared implementation skeleton for the SIMD constituent max-log-MAP
// kernels. Each ISA translation unit (turbo_decoder_{sse,avx2,avx512}.cc)
// instantiates map_decode_impl<VecOps> with its register type; the 8
// trellis states live in one 128-bit lane group and wider registers
// process 2/4 independent windows of the block in parallel lane groups.
//
// Every arithmetic op is the saturating int16 form (`paddsw`/`psubsw`/
// `pmaxsw` — the paper's `_mm_adds`/`_mm_subs`/`_mm_max`), sequenced to
// match the scalar reference exactly so the one-window (SSE) kernel is
// bit-identical to it.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>

#include "common/saturate.h"
#include "phy/turbo/turbo_trellis.h"

namespace vran::phy::turbo_internal {

/// Declared in turbo_decoder.h; redeclared here so the per-ISA kernel TUs
/// can include just this header.
std::int16_t scale_extrinsic(std::int16_t e);

/// Scalar one-step recursions of the reference kernel
/// (map_decode_batch_scalar). Each state takes the plain max of its two
/// branches, as every SIMD kernel does (`pmaxsw`), so the scalar tier
/// agrees with them bit for bit even where every branch sum lies on the
/// int16 rails. `start` exists only for train_beta_tail below.
inline void scalar_alpha_step(std::int16_t* alpha, std::int16_t gs,
                              std::int16_t gp) {
  std::int16_t next[kStates];
  for (int ns = 0; ns < kStates; ++ns) {
    std::int16_t best = std::numeric_limits<std::int16_t>::min();
    for (int b = 0; b < 2; ++b) {
      const int s = kTrellis.pred[b][static_cast<std::size_t>(ns)];
      const int u = kTrellis.in_u[b][static_cast<std::size_t>(ns)];
      const int p = kTrellis.in_p[b][static_cast<std::size_t>(ns)];
      std::int16_t g = 0;
      if (u) g = sat_add16(g, gs);
      if (p) g = sat_add16(g, gp);
      best = std::max(best, sat_add16(alpha[s], g));
    }
    next[ns] = best;
  }
  const std::int16_t norm = next[0];
  for (int s = 0; s < kStates; ++s) alpha[s] = sat_sub16(next[s], norm);
}

inline void scalar_beta_step(
    std::int16_t* beta, std::int16_t gs, std::int16_t gp,
    std::int16_t start = std::numeric_limits<std::int16_t>::min()) {
  std::int16_t next[kStates];
  for (int s = 0; s < kStates; ++s) {
    std::int16_t best = start;
    for (int u = 0; u < 2; ++u) {
      const int ns = kTrellis.succ[u][static_cast<std::size_t>(s)];
      const int p = kTrellis.out_p[u][static_cast<std::size_t>(s)];
      std::int16_t g = 0;
      if (u) g = sat_add16(g, gs);
      if (p) g = sat_add16(g, gp);
      best = std::max(best, sat_add16(beta[ns], g));
    }
    next[s] = best;
  }
  const std::int16_t norm = next[0];
  for (int s = 0; s < kStates; ++s) beta[s] = sat_sub16(next[s], norm);
}

/// One constituent's beta boundary metrics at step K, trained over its
/// three termination steps (a-priori 0) from the zero end state. Every
/// kernel, scalar and SIMD, starts its backward pass here. These maxima
/// start at kMetricFloor, as they always have: on railed tail LLRs the
/// plain max would give different boundary metrics and so move every
/// tier's output.
inline void train_beta_tail(const std::int16_t sys_tail[3],
                            const std::int16_t par_tail[3],
                            std::int16_t beta[kStates]) {
  beta[0] = 0;
  for (int s = 1; s < kStates; ++s) beta[s] = kMetricFloor;
  for (int t = 2; t >= 0; --t) {
    scalar_beta_step(beta, sys_tail[t], par_tail[t], kMetricFloor);
  }
}

/// Byte shuffle patterns and lane masks for one 128-bit state group,
/// replicated across NW groups.
template <int NW>
struct MapPatterns {
  // Alpha recursion: dst lane ns <- alpha[pred[b][ns]].
  alignas(64) std::uint8_t pred_shuf[2][NW * 16];
  alignas(64) std::uint16_t in_u_mask[2][NW * 8];
  alignas(64) std::uint16_t in_p_mask[2][NW * 8];
  // Beta recursion / extrinsic: dst lane s <- beta[succ[u][s]].
  alignas(64) std::uint8_t succ_shuf[2][NW * 16];
  alignas(64) std::uint16_t out_p_mask[2][NW * 8];
  // Broadcast of lane 0 within each group (normalization).
  alignas(64) std::uint8_t lane0_shuf[NW * 16];
};

template <int NW>
constexpr MapPatterns<NW> make_map_patterns() {
  MapPatterns<NW> p{};
  for (int g = 0; g < NW; ++g) {
    for (int lane = 0; lane < 8; ++lane) {
      const int l16 = g * 8 + lane;
      const int b16 = g * 16 + 2 * lane;
      for (int b = 0; b < 2; ++b) {
        const int pred = kTrellis.pred[b][static_cast<std::size_t>(lane)];
        p.pred_shuf[b][b16] = static_cast<std::uint8_t>(2 * pred);
        p.pred_shuf[b][b16 + 1] = static_cast<std::uint8_t>(2 * pred + 1);
        p.in_u_mask[b][l16] =
            kTrellis.in_u[b][static_cast<std::size_t>(lane)] ? 0xFFFFu : 0u;
        p.in_p_mask[b][l16] =
            kTrellis.in_p[b][static_cast<std::size_t>(lane)] ? 0xFFFFu : 0u;
        const int succ = kTrellis.succ[b][static_cast<std::size_t>(lane)];
        p.succ_shuf[b][b16] = static_cast<std::uint8_t>(2 * succ);
        p.succ_shuf[b][b16 + 1] = static_cast<std::uint8_t>(2 * succ + 1);
        p.out_p_mask[b][l16] =
            kTrellis.out_p[b][static_cast<std::size_t>(lane)] ? 0xFFFFu : 0u;
      }
      p.lane0_shuf[b16] = 0;
      p.lane0_shuf[b16 + 1] = 1;
    }
  }
  return p;
}

/// The VecOps contract (documented once; see turbo_decoder_sse.cc for the
/// reference implementation):
///   using reg;                         // __m128i / __m256i / __m512i
///   static constexpr int kWindows;     // 1 / 2 / 4
///   reg load(const void*), void store(void*, reg)
///   reg sat_add(reg, reg), sat_sub, max16, and16
///   reg shuffle(reg, const uint8_t*)   // per-128-lane pshufb
///   reg spread(const int16_t* p)       // group w = broadcast p[w]; reads
///                                      // kWindows contiguous int16 values
template <class V>
void map_decode_impl(std::span<const std::int16_t> sys,
                     std::span<const std::int16_t> par,
                     std::span<const std::int16_t> apr,
                     const std::int16_t sys_tail[3],
                     const std::int16_t par_tail[3],
                     std::span<std::int16_t> ext,
                     std::span<std::int16_t> lall, std::int16_t* alpha_ws,
                     std::int16_t* gs_ws) {
  using reg = typename V::reg;
  constexpr int NW = V::kWindows;
  constexpr int LN = NW * 8;
  static constexpr MapPatterns<NW> P = make_map_patterns<NW>();

  const std::size_t K = sys.size();
  if (K % static_cast<std::size_t>(NW) != 0) {
    throw std::invalid_argument("map_decode_impl: K not divisible by windows");
  }
  const std::size_t W = K / static_cast<std::size_t>(NW);

  // gamma systematic term, full-width elementwise pass + scalar tail.
  // gs_ws holds 3K entries: gs, then (for NW > 1) the step-major
  // transposes of gs and par used by the per-step broadcasts.
  std::int16_t* gs = gs_ws;
  {
    std::size_t k = 0;
    for (; k + LN <= K; k += LN) {
      V::store(gs + k, V::sat_add(V::load(sys.data() + k),
                                  V::load(apr.data() + k)));
    }
    for (; k < K; ++k) gs[k] = sat_add16(sys[k], apr[k]);
  }

  // Step-major operand layout: one NW-value group per trellis step so
  // the recursion loops broadcast with a single load + per-lane shuffle
  // instead of NW inserted set1s.
  const std::int16_t* gs_step = gs;
  const std::int16_t* gp_step = par.data();
  if (NW > 1) {
    std::int16_t* tg = gs_ws + K;
    std::int16_t* tp = gs_ws + 2 * K;
    for (std::size_t w = 0; w < static_cast<std::size_t>(NW); ++w) {
      for (std::size_t step = 0; step < W; ++step) {
        tg[step * NW + w] = gs[w * W + step];
        tp[step * NW + w] = par[w * W + step];
      }
    }
    gs_step = tg;
    gp_step = tp;
  }

  const reg pred0 = V::pattern(P.pred_shuf[0]);
  const reg pred1 = V::pattern(P.pred_shuf[1]);
  const reg mu0 = V::mask(P.in_u_mask[0]);
  const reg mu1 = V::mask(P.in_u_mask[1]);
  const reg mp0 = V::mask(P.in_p_mask[0]);
  const reg mp1 = V::mask(P.in_p_mask[1]);
  const reg succ0 = V::pattern(P.succ_shuf[0]);
  const reg succ1 = V::pattern(P.succ_shuf[1]);
  const reg mq0 = V::mask(P.out_p_mask[0]);
  const reg mq1 = V::mask(P.out_p_mask[1]);
  const reg lane0 = V::pattern(P.lane0_shuf);

  // ---- Forward pass -------------------------------------------------------
  alignas(64) std::int16_t init[LN];
  for (int g = 0; g < NW; ++g) {
    for (int s = 0; s < 8; ++s) {
      // Window 0 starts in the known zero state; later windows start with
      // equal metrics (no knowledge).
      init[g * 8 + s] =
          (g == 0) ? ((s == 0) ? std::int16_t{0} : kMetricFloor)
                   : std::int16_t{0};
    }
  }
  reg alpha = V::load(init);
  for (std::size_t k = 0; k < W; ++k) {
    V::store(alpha_ws + LN * k, alpha);
    const reg gsv = V::spread(gs_step + k * NW);
    const reg gpv = V::spread(gp_step + k * NW);
    const reg g0 = V::sat_add(V::and16(gsv, mu0), V::and16(gpv, mp0));
    const reg g1 = V::sat_add(V::and16(gsv, mu1), V::and16(gpv, mp1));
    const reg a0 = V::sat_add(V::shuffle(alpha, pred0), g0);
    const reg a1 = V::sat_add(V::shuffle(alpha, pred1), g1);
    reg nxt = V::max16(a0, a1);
    nxt = V::sat_sub(nxt, V::shuffle(nxt, lane0));
    alpha = nxt;
  }

  // ---- Beta boundary ------------------------------------------------------
  // Last window's boundary comes from the three termination steps (scalar,
  // matching the reference exactly); other windows start with equal
  // metrics.
  std::int16_t beta_tail[8];
  train_beta_tail(sys_tail, par_tail, beta_tail);

  alignas(64) std::int16_t binit[LN];
  for (int g = 0; g < NW; ++g) {
    for (int s = 0; s < 8; ++s) {
      binit[g * 8 + s] = (g == NW - 1) ? beta_tail[s] : std::int16_t{0};
    }
  }
  reg beta = V::load(binit);

  // ---- Backward pass with extrinsic extraction ----------------------------
  alignas(64) std::int16_t m0buf[LN];
  alignas(64) std::int16_t m1buf[LN];
  for (std::size_t k = W; k-- > 0;) {
    const reg a = V::load(alpha_ws + LN * k);
    const reg gpv = V::spread(gp_step + k * NW);
    // u = 0 branches: gamma = p ? gp : 0 (matches scalar op order).
    reg t0 = V::sat_add(V::sat_add(a, V::shuffle(beta, succ0)),
                        V::and16(gpv, mq0));
    reg t1 = V::sat_add(V::sat_add(a, V::shuffle(beta, succ1)),
                        V::and16(gpv, mq1));
    // Per-group horizontal max (tree over byte shifts).
    t0 = V::max16(t0, V::template bsrli<8>(t0));
    t0 = V::max16(t0, V::template bsrli<4>(t0));
    t0 = V::max16(t0, V::template bsrli<2>(t0));
    t1 = V::max16(t1, V::template bsrli<8>(t1));
    t1 = V::max16(t1, V::template bsrli<4>(t1));
    t1 = V::max16(t1, V::template bsrli<2>(t1));
    V::store(m0buf, t0);
    V::store(m1buf, t1);
    for (int g = 0; g < NW; ++g) {
      ext[k + static_cast<std::size_t>(g) * W] =
          sat_sub16(m1buf[g * 8], m0buf[g * 8]);
    }
    // Step beta back across position k.
    const reg gsv = V::spread(gs_step + k * NW);
    const reg g0 = V::and16(gpv, mq0);
    const reg g1 = V::sat_add(gsv, V::and16(gpv, mq1));
    const reg b0 = V::sat_add(V::shuffle(beta, succ0), g0);
    const reg b1 = V::sat_add(V::shuffle(beta, succ1), g1);
    reg nb = V::max16(b0, b1);
    nb = V::sat_sub(nb, V::shuffle(nb, lane0));
    beta = nb;
  }

  // ---- Full APP (optional) -------------------------------------------------
  if (!lall.empty()) {
    std::size_t k = 0;
    for (; k + LN <= K; k += LN) {
      V::store(lall.data() + k,
               V::sat_add(V::load(ext.data() + k), V::load(gs + k)));
    }
    for (; k < K; ++k) lall[k] = sat_add16(ext[k], gs[k]);
  }
}

/// Full-width extrinsic scaling: e <- (sat(sat(e+e)+e)) >> 2.
template <class V>
void scale_extrinsic_impl(std::span<std::int16_t> e) {
  constexpr int LN = V::kWindows * 8;
  std::size_t k = 0;
  for (; k + LN <= e.size(); k += LN) {
    const auto v = V::load(e.data() + k);
    const auto v3 = V::sat_add(V::sat_add(v, v), v);
    V::store(e.data() + k, V::template srai16<2>(v3));
  }
  for (; k < e.size(); ++k) e[k] = scale_extrinsic(e[k]);
}

/// Full-width saturating add used for gs precomputation benches.
template <class V>
void sat_add_impl(std::span<const std::int16_t> a,
                  std::span<const std::int16_t> b,
                  std::span<std::int16_t> out) {
  constexpr int LN = V::kWindows * 8;
  std::size_t k = 0;
  for (; k + LN <= out.size(); k += LN) {
    V::store(out.data() + k,
             V::sat_add(V::load(a.data() + k), V::load(b.data() + k)));
  }
  for (; k < out.size(); ++k) out[k] = sat_add16(a[k], b[k]);
}

}  // namespace vran::phy::turbo_internal
