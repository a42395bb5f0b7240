// Shared implementation skeleton for the *batched* constituent
// max-log-MAP kernels: one code block per 8-state lane group instead of
// one window of a single block per group (turbo_map_impl.h). A 512-bit
// register then advances four independent trellises per step, a 256-bit
// register two, and the 128-bit form degenerates to the single-block
// kernel.
//
// Because every lane group carries a whole block, each lane group gets
// the block's *exact* boundary metrics — alpha from the known zero start
// state, beta trained from that block's own termination tails — so every
// lane is bit-identical to the one-window SSE decoder, at every register
// width. This is the key contrast with the windowed kernel, whose
// equal-metric window boundaries are approximate for NW > 1. (The scalar
// reference agrees too, except on inputs at the int16 rails: it starts
// each max at kMetricFloor, the SIMD kernels do not.)
//
// All operands and results are step-major (`x[step * NW + lane]`):
// gamma inputs arrive that way, boundary metrics arrive as LN-wide
// packed arrays, and extrinsics leave that way. The orchestrator
// (turbo_batch.cc) keeps its whole per-iteration state in this layout,
// so the interleaver moves all lanes of one step with a single copy.
//
// Extrinsics leave the register file four trellis steps at a time: the
// backward pass keeps each step's two branch-sum registers, reduces four
// steps' worth per branch with one unpack/max transpose tree, takes one
// saturating difference and stores the 4 x NW results at once. Max is
// exact, so the order of the reduction changes no value; every
// saturation happens in the adds before it, as in the single-window
// kernel. Every legal K is a multiple of 8, so 4-step rounds leave no
// tail.
//
// Beyond the VecOps contract of turbo_map_impl.h this needs the
// per-128-bit-lane unpacks `unpacklo16/unpackhi16/unpacklo32/unpackhi32`,
// `bsrli<8>`, and `store_steps4(p, v)`, which writes words 0-3 of every
// lane group step-major to p[0 .. 4 * kWindows).
#pragma once

#include <cstdint>

#include "phy/turbo/turbo_map_impl.h"

namespace vran::phy::turbo_internal {

template <class V>
void map_decode_batch_impl(std::size_t K, const std::int16_t* gs_step,
                           const std::int16_t* gp_step,
                           const std::int16_t* ainit,
                           const std::int16_t* binit, std::int16_t* ext_step,
                           std::int16_t* alpha_ws) {
  using reg = typename V::reg;
  constexpr int NW = V::kWindows;
  constexpr int LN = NW * 8;
  static constexpr MapPatterns<NW> P = make_map_patterns<NW>();

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

  // ---- Forward pass (identical op sequence to the windowed kernel and,
  // per lane, to the scalar reference) ------------------------------------
  reg alpha = V::load(ainit);
  for (std::size_t k = 0; k < K; ++k) {
    V::store(alpha_ws + LN * k, alpha);
    const reg gsv = V::spread(gs_step + k * NW);
    const reg gpv = V::spread(gp_step + k * NW);
    const reg g0 = V::sat_add(V::and16(gsv, mu0), V::and16(gpv, mp0));
    const reg g1 = V::sat_add(V::and16(gsv, mu1), V::and16(gpv, mp1));
    const reg a0 = V::sat_add(V::shuffle(alpha, pred0), g0);
    const reg a1 = V::sat_add(V::shuffle(alpha, pred1), g1);
    const reg nxt = V::max16(a0, a1);
    alpha = V::sat_sub(nxt, V::shuffle(nxt, lane0));
  }

  // ---- Backward pass with extrinsic extraction ----------------------------
  reg beta = V::load(binit);
  // Branch sums of step k for u = 0 and u = 1: gamma = p ? gp : 0,
  // matching the scalar op order (gs cancels in the extrinsic). Then
  // steps beta back across k.
  struct BranchSums {
    reg u0, u1;
  };
  const auto step = [&](std::size_t k) {
    const reg a = V::load(alpha_ws + LN * k);
    const reg gpv = V::spread(gp_step + k * NW);
    const reg g0 = V::and16(gpv, mq0);
    const reg g1 = V::and16(gpv, mq1);
    const reg q0 = V::shuffle(beta, succ0);
    const reg q1 = V::shuffle(beta, succ1);
    const BranchSums t{V::sat_add(V::sat_add(a, q0), g0),
                       V::sat_add(V::sat_add(a, q1), g1)};
    const reg b0 = V::sat_add(q0, g0);
    const reg b1 =
        V::sat_add(q1, V::sat_add(V::spread(gs_step + k * NW), g1));
    const reg nb = V::max16(b0, b1);
    beta = V::sat_sub(nb, V::shuffle(nb, lane0));
    return t;
  };
  // Per lane group, 8 states of two consecutive steps -> 4 (lo, hi)
  // pairs of partial maxima.
  const auto fold_pair = [](reg lo, reg hi) {
    return V::max16(V::unpacklo16(lo, hi), V::unpackhi16(lo, hi));
  };
  // Two folded pairs -> words 0-3 of each group = max over all 8 states
  // of steps k0 .. k0 + 3.
  const auto fold_quad = [](reg p01, reg p23) {
    const reg m = V::max16(V::unpacklo32(p01, p23), V::unpackhi32(p01, p23));
    return V::max16(m, V::template bsrli<8>(m));
  };
  for (std::size_t k0 = K; k0 > 0;) {
    k0 -= 4;
    const BranchSums s3 = step(k0 + 3);
    const BranchSums s2 = step(k0 + 2);
    const reg u0_23 = fold_pair(s2.u0, s3.u0);
    const reg u1_23 = fold_pair(s2.u1, s3.u1);
    const BranchSums s1 = step(k0 + 1);
    const BranchSums s0 = step(k0);
    const reg m0 = fold_quad(fold_pair(s0.u0, s1.u0), u0_23);
    const reg m1 = fold_quad(fold_pair(s0.u1, s1.u1), u1_23);
    V::store_steps4(ext_step + k0 * NW, V::sat_sub(m1, m0));
  }
}

}  // namespace vran::phy::turbo_internal
