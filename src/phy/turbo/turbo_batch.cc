// Batched-lane turbo decoder orchestration: step-major state, per-lane
// early-termination voting, and lane compaction around the per-ISA
// batched MAP kernels (turbo_map_batch_{sse,avx2,avx512}.cc).
//
// Iteration structure mirrors TurboDecoder::decode_arranged operation
// for operation — every per-lane arithmetic sequence is identical to the
// scalar reference, so each block's hard decisions, iteration count and
// CRC state are bit-exact with single-block decoding at any width.
#include "phy/turbo/turbo_batch.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_map_impl.h"

namespace vran::phy {

namespace turbo_internal {

// Entry points defined in turbo_map_batch_{sse,avx2,avx512}.cc.
void map_decode_batch_sse(std::size_t, const std::int16_t*,
                          const std::int16_t*, const std::int16_t*,
                          const std::int16_t*, std::int16_t*, std::int16_t*);
void map_decode_batch_avx2(std::size_t, const std::int16_t*,
                           const std::int16_t*, const std::int16_t*,
                           const std::int16_t*, std::int16_t*, std::int16_t*);
void map_decode_batch_avx512(std::size_t, const std::int16_t*,
                             const std::int16_t*, const std::int16_t*,
                             const std::int16_t*, std::int16_t*,
                             std::int16_t*);

namespace {

void map_decode_batch(IsaLevel isa, std::size_t k, const std::int16_t* gs_step,
                      const std::int16_t* gp_step, const std::int16_t* ainit,
                      const std::int16_t* binit, std::int16_t* ext_step,
                      std::int16_t* alpha_ws) {
  switch (isa) {
    case IsaLevel::kAvx512:
      map_decode_batch_avx512(k, gs_step, gp_step, ainit, binit, ext_step,
                              alpha_ws);
      return;
    case IsaLevel::kAvx2:
      map_decode_batch_avx2(k, gs_step, gp_step, ainit, binit, ext_step,
                            alpha_ws);
      return;
    default:
      map_decode_batch_sse(k, gs_step, gp_step, ainit, binit, ext_step,
                           alpha_ws);
      return;
  }
}

/// Batch-transpose arrangement: dst[step * nw + s] = srcs[s][step] for
/// nw streams of n int16 (n divisible by 8, all pointers 16B-aligned).
/// SSE2 unpack trees — always available on x86-64, so this lives in the
/// ISA-neutral TU.
void transpose_step_major(const std::int16_t* const srcs[], int nw,
                          std::size_t n, std::int16_t* dst) {
  if (nw == 1) {
    std::memcpy(dst, srcs[0], n * sizeof(std::int16_t));
    return;
  }
  if (nw == 2) {
    for (std::size_t k = 0; k < n; k += 8) {
      const __m128i a = _mm_load_si128(
          reinterpret_cast<const __m128i*>(srcs[0] + k));
      const __m128i b = _mm_load_si128(
          reinterpret_cast<const __m128i*>(srcs[1] + k));
      _mm_store_si128(reinterpret_cast<__m128i*>(dst + 2 * k),
                      _mm_unpacklo_epi16(a, b));
      _mm_store_si128(reinterpret_cast<__m128i*>(dst + 2 * k + 8),
                      _mm_unpackhi_epi16(a, b));
    }
    return;
  }
  // nw == 4: 4x8 int16 transpose per 8-step chunk.
  for (std::size_t k = 0; k < n; k += 8) {
    const __m128i a =
        _mm_load_si128(reinterpret_cast<const __m128i*>(srcs[0] + k));
    const __m128i b =
        _mm_load_si128(reinterpret_cast<const __m128i*>(srcs[1] + k));
    const __m128i c =
        _mm_load_si128(reinterpret_cast<const __m128i*>(srcs[2] + k));
    const __m128i d =
        _mm_load_si128(reinterpret_cast<const __m128i*>(srcs[3] + k));
    const __m128i t0 = _mm_unpacklo_epi16(a, b);
    const __m128i t1 = _mm_unpacklo_epi16(c, d);
    const __m128i t2 = _mm_unpackhi_epi16(a, b);
    const __m128i t3 = _mm_unpackhi_epi16(c, d);
    std::int16_t* o = dst + 4 * k;
    _mm_store_si128(reinterpret_cast<__m128i*>(o),
                    _mm_unpacklo_epi32(t0, t1));
    _mm_store_si128(reinterpret_cast<__m128i*>(o + 8),
                    _mm_unpackhi_epi32(t0, t1));
    _mm_store_si128(reinterpret_cast<__m128i*>(o + 16),
                    _mm_unpacklo_epi32(t2, t3));
    _mm_store_si128(reinterpret_cast<__m128i*>(o + 24),
                    _mm_unpackhi_epi32(t2, t3));
  }
}

/// Step-major permutation through `table`: dst[i * NW + s] =
/// src[table[i] * NW + s] for all NW lanes at once, one 2-, 4- or
/// 8-byte copy per trellis step.
template <int NW>
void gather_steps(std::span<const int> table, const std::int16_t* src,
                  std::int16_t* dst) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    std::memcpy(dst + i * NW, src + static_cast<std::size_t>(table[i]) * NW,
                NW * sizeof(std::int16_t));
  }
}

void gather_steps(int nw, std::span<const int> table, const std::int16_t* src,
                  std::int16_t* dst) {
  switch (nw) {
    case 4: gather_steps<4>(table, src, dst); return;
    case 2: gather_steps<2>(table, src, dst); return;
    default: gather_steps<1>(table, src, dst); return;
  }
}

/// Hard decisions out of a step-major APP stream: outs[s][j] =
/// app[j * nw + s] > 0 for the first n_out lanes, eight steps per round
/// (n divisible by 8): compare, pack to bytes, then a byte shuffle from
/// (step, lane) to lane-major order.
void hard_decisions(const std::int16_t* app, int nw, std::size_t n,
                    std::uint8_t* const outs[], int n_out) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi8(1);
  const __m128i by_lane4 =
      _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
  const __m128i by_lane2 =
      _mm_setr_epi8(0, 2, 4, 6, 8, 10, 12, 14, 1, 3, 5, 7, 9, 11, 13, 15);
  const auto positive = [&](const std::int16_t* p) {
    return _mm_cmpgt_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), zero);
  };
  // 16 values -> 16 bytes of 0/1, same order.
  const auto bits16 = [&](const std::int16_t* p) {
    return _mm_and_si128(_mm_packs_epi16(positive(p), positive(p + 8)), one);
  };
  alignas(16) std::uint8_t lanes[32] = {};  // 8 bytes per lane
  for (std::size_t j = 0; j < n; j += 8) {
    const std::int16_t* a = app + j * static_cast<std::size_t>(nw);
    if (nw == 4) {
      const __m128i q0 = _mm_shuffle_epi8(bits16(a), by_lane4);
      const __m128i q1 = _mm_shuffle_epi8(bits16(a + 16), by_lane4);
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                      _mm_unpacklo_epi32(q0, q1));
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 16),
                      _mm_unpackhi_epi32(q0, q1));
    } else if (nw == 2) {
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                      _mm_shuffle_epi8(bits16(a), by_lane2));
    } else {
      _mm_store_si128(
          reinterpret_cast<__m128i*>(lanes),
          _mm_and_si128(_mm_packs_epi16(positive(a), zero), one));
    }
    for (int s = 0; s < n_out; ++s) {
      std::memcpy(outs[s] + j, lanes + 8 * s, 8);
    }
  }
}

/// Narrowest tier whose lane capacity covers `nb` blocks. Always at or
/// below the config tier because nb <= lane_capacity(cfg.isa).
IsaLevel tier_for(int nb) {
  if (nb <= 1) return IsaLevel::kSse41;
  if (nb <= 2) return IsaLevel::kAvx2;
  return IsaLevel::kAvx512;
}

}  // namespace

}  // namespace turbo_internal

int TurboBatchDecoder::lane_capacity(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::kAvx512: return 4;
    case IsaLevel::kAvx2: return 2;
    default: return 1;
  }
}

bool windowed_window_too_short(int k, IsaLevel isa) {
  // Windows per block of the windowed decoder: the 8 trellis states fill
  // one 128-bit lane, wider registers split the block into equal windows.
  // Same 1/2/4 window progression the windowed decoder uses per tier.
  const int nw = TurboBatchDecoder::lane_capacity(isa);
  return nw > 1 && k / nw < kMinWindowSteps;
}

TurboBatchDecoder::TurboBatchDecoder(int k, TurboBatchConfig cfg)
    : k_(k),
      capacity_(lane_capacity(cfg.isa)),
      cfg_(cfg),
      interleaver_(k) {
  if (cfg_.max_iterations < 1) {
    throw std::invalid_argument(
        "TurboBatchDecoder: max_iterations must be >= 1");
  }
  if (cfg_.isa < IsaLevel::kSse41) {
    throw std::invalid_argument(
        "TurboBatchDecoder: batched decoding requires a SIMD tier");
  }
  if (cfg_.isa > best_isa()) {
    throw std::invalid_argument(
        "TurboBatchDecoder: requested ISA not available");
  }
  const std::size_t n = static_cast<std::size_t>(k_);
  const std::size_t cn = static_cast<std::size_t>(capacity_) * n;
  for (auto* v : {&tsys_, &tsys2_, &tp1_, &tp2_, &apr1_, &apr2_, &gs_, &ext_}) {
    v->resize(cn);
  }
  // One LN-wide alpha register per trellis step.
  alpha_ws_.resize(cn * 8);
  zeros_.resize(n);
  hard_.resize(cn);
  hard_prev_.resize(cn);
}

void TurboBatchDecoder::decode_arranged(
    std::span<const TurboBatchInput> blocks,
    std::span<const std::span<std::uint8_t>> outs,
    std::span<TurboBatchResult> results,
    std::span<const std::uint8_t> force_full) {
  using namespace turbo_internal;
  const std::size_t n = static_cast<std::size_t>(k_);
  const std::size_t nt = n + kTurboTail;
  const int nb = static_cast<int>(blocks.size());
  if (nb < 1 || nb > capacity_) {
    throw std::invalid_argument("TurboBatchDecoder: bad batch size");
  }
  if (outs.size() != blocks.size() || results.size() != blocks.size() ||
      (!force_full.empty() && force_full.size() != blocks.size())) {
    throw std::invalid_argument("TurboBatchDecoder: span count mismatch");
  }

  // Per-block setup: tails and beta boundary training.
  bool converged[kMaxLanes] = {};
  bool have_prev[kMaxLanes] = {};
  for (int b = 0; b < nb; ++b) {
    const auto& in = blocks[static_cast<std::size_t>(b)];
    if (in.sys.size() != nt || in.p1.size() != nt || in.p2.size() != nt ||
        outs[static_cast<std::size_t>(b)].size() != n) {
      throw std::invalid_argument("TurboBatchDecoder: bad block sizes");
    }
    const auto sys = in.sys;
    const auto p1 = in.p1;
    const auto p2 = in.p2;
    // 36.212 tail multiplexing (see turbo_encoder.cc).
    const std::int16_t st1[3] = {sys[n], p2[n], p1[n + 1]};
    const std::int16_t pt1[3] = {p1[n], sys[n + 1], p2[n + 1]};
    const std::int16_t st2[3] = {sys[n + 2], p2[n + 2], p1[n + 3]};
    const std::int16_t pt2[3] = {p1[n + 2], sys[n + 3], p2[n + 3]};

    beta_tail1_[b][0] = 0;
    beta_tail2_[b][0] = 0;
    for (int s = 1; s < 8; ++s) {
      beta_tail1_[b][s] = kMetricFloor;
      beta_tail2_[b][s] = kMetricFloor;
    }
    for (int t = 2; t >= 0; --t) {
      scalar_beta_step(beta_tail1_[b], st1[t], pt1[t]);
      scalar_beta_step(beta_tail2_[b], st2[t], pt2[t]);
    }
    results[static_cast<std::size_t>(b)] = TurboBatchResult{};
  }

  // Lane assignment: slot s runs block slot_blocks[s]. Converged blocks
  // ride along at full width until at least half the batch is done, then
  // the survivors are compacted into the narrowest covering kernel.
  int slot_blocks[kMaxLanes] = {};
  int n_slots = 0;
  IsaLevel tier = IsaLevel::kSse41;
  int nw = 1;
  int n_converged = 0;
  const auto pi = interleaver_.table();
  const auto pi_inv = interleaver_.inverse_table();

  const auto assign_lanes = [&]() {
    const bool compact = 2 * n_converged >= nb;
    int desired[kMaxLanes];
    int nd = 0;
    for (int b = 0; b < nb; ++b) {
      if (compact && converged[b]) continue;
      desired[nd++] = b;
    }
    if (nd == n_slots &&
        std::equal(desired, desired + nd, slot_blocks)) {
      return;
    }
    // Old slot of each surviving block, for the carried a-priori.
    int from[kMaxLanes] = {};
    for (int s = 0; s < nd; ++s) {
      from[s] = static_cast<int>(
          std::find(slot_blocks, slot_blocks + n_slots, desired[s]) -
          slot_blocks);
    }
    const bool first = n_slots == 0;
    const std::size_t old_nw = static_cast<std::size_t>(nw);
    n_slots = nd;
    std::copy(desired, desired + nd, slot_blocks);
    tier = tier_for(n_slots);
    nw = lane_capacity(tier);
    // Re-pack streams and boundary metrics for the new lanes.
    const std::int16_t* syss[kMaxLanes];
    const std::int16_t* p1s[kMaxLanes];
    const std::int16_t* p2s[kMaxLanes];
    std::fill_n(ainit_, nw * 8, std::int16_t{0});
    std::fill_n(binit1_, nw * 8, std::int16_t{0});
    std::fill_n(binit2_, nw * 8, std::int16_t{0});
    for (int s = 0; s < nw; ++s) {
      if (s < n_slots) {
        const auto& in = blocks[static_cast<std::size_t>(slot_blocks[s])];
        syss[s] = in.sys.data();
        p1s[s] = in.p1.data();
        p2s[s] = in.p2.data();
        ainit_[s * 8] = 0;
        for (int st = 1; st < 8; ++st) ainit_[s * 8 + st] = kMetricFloor;
        std::copy_n(beta_tail1_[slot_blocks[s]], 8, binit1_ + s * 8);
        std::copy_n(beta_tail2_[slot_blocks[s]], 8, binit2_ + s * 8);
      } else {
        syss[s] = p1s[s] = p2s[s] = zeros_.data();
      }
    }
    transpose_step_major(syss, nw, n, tsys_.data());
    transpose_step_major(p1s, nw, n, tp1_.data());
    transpose_step_major(p2s, nw, n, tp2_.data());
    gather_steps(nw, pi, tsys_.data(), tsys2_.data());
    const std::size_t len = n * static_cast<std::size_t>(nw);
    if (first) {
      std::fill_n(apr1_.data(), len, std::int16_t{0});
      return;
    }
    // Survivors keep their a-priori: select their old lanes into the
    // narrower layout (gs_ is free between iterations).
    for (std::size_t k = 0; k < n; ++k) {
      for (int s = 0; s < nw; ++s) {
        gs_[k * static_cast<std::size_t>(nw) + static_cast<std::size_t>(s)] =
            s < n_slots ? apr1_[k * old_nw + static_cast<std::size_t>(from[s])]
                        : std::int16_t{0};
      }
    }
    std::swap(apr1_, gs_);
  };

  std::uint8_t* slot_hard[kMaxLanes] = {};
  for (int it = 0; it < cfg_.max_iterations; ++it) {
    assign_lanes();
    if (n_slots == 0) break;
    const std::size_t len = n * static_cast<std::size_t>(nw);
    const auto span_of = [len](AlignedVector<std::int16_t>& v) {
      return std::span<std::int16_t>(v.data(), len);
    };
    const auto tsys = span_of(tsys_);
    const auto tsys2 = span_of(tsys2_);
    const auto apr1 = span_of(apr1_);
    const auto apr2 = span_of(apr2_);
    const auto gs = span_of(gs_);
    const auto ext = span_of(ext_);

    // ---- Constituent 1 (natural order) ----
    vec_sat_add(cfg_.isa, tsys, apr1, gs);
    map_decode_batch(tier, n, gs.data(), tp1_.data(), ainit_, binit1_,
                     ext.data(), alpha_ws_.data());
    // apr2 = scaled ext1, interleaved: all lanes of a step per copy.
    vec_scale_extrinsic(cfg_.isa, ext);
    gather_steps(nw, pi, ext.data(), apr2.data());

    // ---- Constituent 2 (interleaved order) ----
    vec_sat_add(cfg_.isa, tsys2, apr2, gs);
    map_decode_batch(tier, n, gs.data(), tp2_.data(), ainit_, binit2_,
                     ext.data(), alpha_ws_.data());
    // Full APP for hard bits (ext + gs, before scaling) replaces gs, then
    // both go back to natural order through pi^-1: the scaled extrinsic
    // is the next a-priori, the APP lands in apr2 (free until the next
    // gather) and yields each slot's hard decisions.
    vec_sat_add(cfg_.isa, ext, gs, gs);
    vec_scale_extrinsic(cfg_.isa, ext);
    gather_steps(nw, pi_inv, ext.data(), apr1.data());
    gather_steps(nw, pi_inv, gs.data(), apr2.data());
    for (int s = 0; s < n_slots; ++s) {
      slot_hard[s] =
          hard_.data() + static_cast<std::size_t>(slot_blocks[s]) * n;
    }
    hard_decisions(apr2.data(), nw, n, slot_hard, n_slots);

    // ---- Per-lane early-termination voting ----
    for (int s = 0; s < n_slots; ++s) {
      const int b = slot_blocks[s];
      if (converged[b]) continue;  // riding along, output frozen
      auto& res = results[static_cast<std::size_t>(b)];
      res.iterations = it + 1;
      const bool forced =
          !force_full.empty() && force_full[static_cast<std::size_t>(b)] != 0;
      const auto hb = std::span<const std::uint8_t>(
          hard_.data() + static_cast<std::size_t>(b) * n, n);
      auto hp = std::span<std::uint8_t>(
          hard_prev_.data() + static_cast<std::size_t>(b) * n, n);
      if (!forced && cfg_.crc.has_value() && crc_check(hb, *cfg_.crc)) {
        res.crc_ok = true;
        res.converged = true;
      } else if (!forced && cfg_.early_stop && have_prev[b] &&
                 std::equal(hb.begin(), hb.end(), hp.begin())) {
        res.converged = true;
        res.crc_ok = cfg_.crc.has_value() && crc_check(hb, *cfg_.crc);
      } else {
        std::copy(hb.begin(), hb.end(), hp.begin());
        have_prev[b] = true;
        continue;
      }
      // Converged: freeze the output now; later iterations may keep
      // rewriting hard_ for this lane while it rides along.
      std::copy(hb.begin(), hb.end(),
                outs[static_cast<std::size_t>(b)].begin());
      converged[b] = true;
      ++n_converged;
    }
    if (n_converged == nb) break;
  }

  // Retire unconverged blocks: honest final CRC over the last decisions.
  for (int b = 0; b < nb; ++b) {
    if (converged[b]) continue;
    auto& res = results[static_cast<std::size_t>(b)];
    const auto hb = std::span<const std::uint8_t>(
        hard_.data() + static_cast<std::size_t>(b) * n, n);
    res.crc_ok = cfg_.crc.has_value() && crc_check(hb, *cfg_.crc);
    std::copy(hb.begin(), hb.end(), outs[static_cast<std::size_t>(b)].begin());
  }
}

}  // namespace vran::phy
