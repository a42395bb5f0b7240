// Scalar reference constituent decoder + iteration orchestration.
//
// The scalar MAP mirrors the SIMD kernels operation for operation
// (saturating adds/subs, per-step normalization against state 0, plain
// branch max), so every exact SIMD kernel can be validated bit for bit
// against it. One implementation, map_decode_batch_scalar, serves both
// this decoder's scalar path and the batched decoder's scalar tier.
#include "phy/turbo/turbo_decoder.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/saturate.h"
#include "common/timer.h"
#include "phy/turbo/turbo_map_impl.h"

namespace vran::phy {

namespace turbo_internal {

std::int16_t scale_extrinsic(std::int16_t e) {
  // (3e) >> 2 with the saturating doubling construction the SIMD kernels
  // use: e3 = sat(sat(e + e) + e), then arithmetic shift.
  const std::int16_t e2 = sat_add16(e, e);
  const std::int16_t e3 = sat_add16(e2, e);
  return static_cast<std::int16_t>(e3 >> 2);
}

void map_decode_batch_scalar(std::size_t K, const std::int16_t* gs,
                             const std::int16_t* gp, const std::int16_t* ainit,
                             const std::int16_t* binit, std::int16_t* ext,
                             std::int16_t* alpha_ws) {
  // Forward pass, storing normalized alphas before each step.
  std::int16_t alpha[kStates];
  std::copy_n(ainit, kStates, alpha);
  for (std::size_t k = 0; k < K; ++k) {
    std::copy_n(alpha, kStates, alpha_ws + kStates * k);
    scalar_alpha_step(alpha, gs[k], gp[k]);
  }

  // Backward pass with extrinsic extraction: plain maxima over the eight
  // states, as the SIMD kernels reduce them.
  std::int16_t beta[kStates];
  std::copy_n(binit, kStates, beta);
  for (std::size_t k = K; k-- > 0;) {
    const std::int16_t* a = alpha_ws + kStates * k;
    std::int16_t m[2] = {std::numeric_limits<std::int16_t>::min(),
                         std::numeric_limits<std::int16_t>::min()};
    for (int s = 0; s < kStates; ++s) {
      for (int u = 0; u < 2; ++u) {
        const int ns = kTrellis.succ[u][static_cast<std::size_t>(s)];
        const int p = kTrellis.out_p[u][static_cast<std::size_t>(s)];
        // gs deliberately excluded: it cancels in the extrinsic.
        std::int16_t t = sat_add16(a[s], beta[ns]);
        if (p) t = sat_add16(t, gp[k]);
        m[u] = std::max(m[u], t);
      }
    }
    ext[k] = sat_sub16(m[1], m[0]);
    scalar_beta_step(beta, gs[k], gp[k]);
  }
}

void map_decode_scalar(std::span<const std::int16_t> sys,
                       std::span<const std::int16_t> par,
                       std::span<const std::int16_t> apr,
                       const std::int16_t sys_tail[3],
                       const std::int16_t par_tail[3],
                       std::span<std::int16_t> ext,
                       std::span<std::int16_t> lall,
                       std::int16_t* alpha_workspace,
                       std::int16_t* gs_workspace) {
  const std::size_t K = sys.size();
  if (par.size() != K || apr.size() != K || ext.size() != K ||
      (!lall.empty() && lall.size() != K)) {
    throw std::invalid_argument("map_decode_scalar: size mismatch");
  }

  // gamma systematic term per step (caller-provided scratch, >= K).
  std::int16_t* gs = gs_workspace;
  for (std::size_t k = 0; k < K; ++k) gs[k] = sat_add16(sys[k], apr[k]);

  // Alpha from the known zero start state, beta from the three
  // termination steps.
  std::int16_t ainit[kStates];
  ainit[0] = 0;
  for (int s = 1; s < kStates; ++s) ainit[s] = kMetricFloor;
  std::int16_t binit[kStates];
  train_beta_tail(sys_tail, par_tail, binit);

  map_decode_batch_scalar(K, gs, par.data(), ainit, binit, ext.data(),
                          alpha_workspace);
  if (!lall.empty()) {
    for (std::size_t k = 0; k < K; ++k) lall[k] = sat_add16(ext[k], gs[k]);
  }
}

}  // namespace turbo_internal

// ---------------------------------------------------------------------------
// TurboDecoder orchestration.
// ---------------------------------------------------------------------------

using turbo_internal::kStates;

TurboDecoder::TurboDecoder(int k, TurboDecodeConfig cfg)
    : k_(k), cfg_(cfg), interleaver_(k) {
  if (cfg_.max_iterations < 1) {
    // With zero iterations the MAP loop never runs and decode_arranged
    // would copy whatever stale hard decisions the previous decode of
    // this object left in hard_ (and CRC-check them). Reject the config
    // outright instead of returning garbage that can even pass a CRC.
    throw std::invalid_argument("TurboDecoder: max_iterations must be >= 1");
  }
  if (cfg_.simd && cfg_.isa != IsaLevel::kScalar && cfg_.isa > best_isa()) {
    throw std::invalid_argument("TurboDecoder: requested ISA not available");
  }
  const std::size_t n = static_cast<std::size_t>(k_);
  const std::size_t nt = n + kTurboTail;
  arranged_sys_.resize(nt);
  arranged_p1_.resize(nt);
  arranged_p2_.resize(nt);
  sys2_.resize(n);
  apr1_.resize(n);
  apr2_.resize(n);
  ext_.resize(n);
  lall_.resize(n);
  // Worst case: SIMD stores one full register per step (4 windows x 8
  // states at AVX-512); scalar uses 8 per step.
  alpha_store_.resize(n * 32 + 64);
  // 3K: gamma-systematic array plus the two step-major transposes the
  // windowed kernels build (see turbo_map_impl.h). Owned here — not
  // thread_local — so the warmup cost lands at construction, once.
  gs_.resize(3 * n);
  hard_.resize(n);
  hard_prev_.resize(n);
}

TurboDecodeResult TurboDecoder::decode(
    std::span<const std::int16_t> llr_triples,
    std::span<std::uint8_t> bits_out, bool force_full_iterations) {
  const std::size_t nt = static_cast<std::size_t>(k_) + kTurboTail;
  if (llr_triples.size() != 3 * nt) {
    throw std::invalid_argument("TurboDecoder::decode: need 3*(K+4) LLRs");
  }

  Stopwatch sw;
  arrange::Options opt;
  opt.method = cfg_.arrange_method;
  opt.isa = cfg_.simd ? cfg_.isa : IsaLevel::kScalar;
  opt.order = arrange::Order::kCanonical;
  arrange::deinterleave3_i16(llr_triples, arranged_sys_, arranged_p1_,
                             arranged_p2_, opt);
  const double arrange_s = sw.seconds();

  auto result = decode_arranged(arranged_sys_, arranged_p1_, arranged_p2_,
                                bits_out, force_full_iterations);
  result.arrange_seconds = arrange_s;
  return result;
}

TurboDecodeResult TurboDecoder::decode_arranged(
    std::span<const std::int16_t> sys, std::span<const std::int16_t> p1,
    std::span<const std::int16_t> p2, std::span<std::uint8_t> bits_out,
    bool force_full_iterations) {
  const std::size_t K = static_cast<std::size_t>(k_);
  const std::size_t nt = K + kTurboTail;
  if (sys.size() != nt || p1.size() != nt || p2.size() != nt ||
      bits_out.size() != K) {
    throw std::invalid_argument("TurboDecoder::decode_arranged: bad sizes");
  }

  Stopwatch sw;

  // 36.212 tail multiplexing (see turbo_encoder.cc): recover per-
  // constituent termination LLRs.
  const std::int16_t sys_tail1[3] = {sys[K], p2[K], p1[K + 1]};
  const std::int16_t par_tail1[3] = {p1[K], sys[K + 1], p2[K + 1]};
  const std::int16_t sys_tail2[3] = {sys[K + 2], p2[K + 2], p1[K + 3]};
  const std::int16_t par_tail2[3] = {p1[K + 2], sys[K + 3], p2[K + 3]};

  // Interleaved systematic stream for constituent 2.
  interleaver_.interleave(sys.first(K), std::span<std::int16_t>(sys2_));

  std::fill(apr1_.begin(), apr1_.end(), std::int16_t{0});

  const auto run_map = [&](std::span<const std::int16_t> s,
                           std::span<const std::int16_t> p,
                           std::span<const std::int16_t> a,
                           const std::int16_t st[3], const std::int16_t pt[3],
                           std::span<std::int16_t> lall) {
    if (cfg_.simd && cfg_.isa != IsaLevel::kScalar) {
      turbo_internal::map_decode_simd(cfg_.isa, s, p, a, st, pt, ext_, lall,
                                      alpha_store_.data(), gs_.data());
    } else {
      turbo_internal::map_decode_scalar(s, p, a, st, pt, ext_, lall,
                                        alpha_store_.data(), gs_.data());
    }
  };

  TurboDecodeResult res;
  bool have_prev = false;
  for (int it = 0; it < cfg_.max_iterations; ++it) {
    res.iterations = it + 1;

    // Constituent 1 (natural order).
    run_map(sys.first(K), p1.first(K), apr1_, sys_tail1, par_tail1, {});
    // apr2 = scaled ext1, interleaved.
    for (std::size_t i = 0; i < K; ++i) {
      apr2_[i] = turbo_internal::scale_extrinsic(
          ext_[static_cast<std::size_t>(interleaver_.pi(static_cast<int>(i)))]);
    }

    // Constituent 2 (interleaved order), with full APP for hard bits.
    run_map(sys2_, p2.first(K), apr2_, sys_tail2, par_tail2,
            std::span<std::int16_t>(lall_));
    // apr1 = scaled ext2, de-interleaved.
    for (std::size_t i = 0; i < K; ++i) {
      apr1_[static_cast<std::size_t>(interleaver_.pi(static_cast<int>(i)))] =
          turbo_internal::scale_extrinsic(ext_[i]);
    }

    // Hard decisions (de-interleave constituent 2's APP).
    for (std::size_t i = 0; i < K; ++i) {
      hard_[static_cast<std::size_t>(interleaver_.pi(static_cast<int>(i)))] =
          static_cast<std::uint8_t>(lall_[i] > 0);
    }

    if (!force_full_iterations && cfg_.crc.has_value() &&
        crc_check(hard_, *cfg_.crc)) {
      res.crc_ok = true;
      res.converged = true;
      break;
    }
    if (!force_full_iterations && cfg_.early_stop && have_prev &&
        hard_ == hard_prev_) {
      res.converged = true;
      break;
    }
    hard_prev_ = hard_;
    have_prev = true;
  }

  if (cfg_.crc.has_value() && !res.crc_ok) {
    res.crc_ok = crc_check(hard_, *cfg_.crc);
  }
  std::copy(hard_.begin(), hard_.end(), bits_out.begin());
  res.compute_seconds = sw.seconds();
  return res;
}

}  // namespace vran::phy
