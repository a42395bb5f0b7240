// Max-log-MAP turbo decoder (8-state LTE PCCC), int16 fixed point.
//
// The decoder is the paper's profiling centrepiece: it spends its cycles
// in two kinds of work (§4.2),
//   * SIMD *calculation* — gamma / alpha / beta / extrinsic recursions
//     built from `_mm_adds`, `_mm_subs`, `_mm_max` (saturating int16), and
//   * SIMD *data movement* — the data-arrangement step that de-interleaves
//     the incoming (systematic, parity1, parity2) LLR triples.
// The arrangement mechanism is pluggable (`arrange::Method`), which is how
// APCM is evaluated end-to-end: the same decoder runs with the extract
// baseline or with APCM and reports both phases' CPU time separately.
//
// SIMD scaling follows the production-decoder pattern: the 8 trellis
// states occupy one 128-bit lane, and wider registers decode 2 (AVX2) or
// 4 (AVX-512) equal windows of the block in parallel lanes, with
// equal-metric window-boundary initialization. The SSE path is bit-exact
// against the scalar reference; windowed paths are validated functionally
// (BER/BLER) since windowing changes boundary metrics.
//
// LLR convention: positive LLR means bit = 1.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "arrange/arrange.h"
#include "common/aligned.h"
#include "common/cpu_features.h"
#include "phy/crc/crc.h"
#include "phy/turbo/qpp_interleaver.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::phy {

struct TurboDecodeConfig {
  int max_iterations = 6;
  /// Stop early when hard decisions repeat between iterations.
  bool early_stop = true;
  /// When set, each iteration checks this CRC over the hard decisions and
  /// stops on success; result.crc_ok reports the final state.
  std::optional<CrcType> crc;
  /// Data-arrangement mechanism used by decode() on the interleaved input.
  arrange::Method arrange_method = arrange::Method::kApcm;
  /// Register width for both the arrangement and the MAP kernels.
  IsaLevel isa = IsaLevel::kSse41;
  /// false selects the scalar reference decoder (testing/debugging).
  bool simd = true;
};

struct TurboDecodeResult {
  int iterations = 0;
  bool crc_ok = false;
  bool converged = false;
  double arrange_seconds = 0.0;  ///< data-arrangement phase CPU time
  double compute_seconds = 0.0;  ///< MAP iteration phase CPU time
};

class TurboDecoder {
 public:
  explicit TurboDecoder(int k, TurboDecodeConfig cfg = {});

  int block_size() const { return k_; }
  const TurboDecodeConfig& config() const { return cfg_; }

  /// Decode from the triple-interleaved LLR stream (3*(K+4) values,
  /// layout [d0_0 d1_0 d2_0 d0_1 ...]) — runs the configured data
  /// arrangement first, then the MAP iterations. `bits_out` receives K
  /// hard decisions. `force_full_iterations` (fault injection: a missed
  /// early-stop) disables the CRC-stop and repeat-detection exits for
  /// this call only, so every configured iteration runs; crc_ok still
  /// reports the final hard decisions honestly.
  TurboDecodeResult decode(std::span<const std::int16_t> llr_triples,
                           std::span<std::uint8_t> bits_out,
                           bool force_full_iterations = false);

  /// Decode from already-arranged streams (each K+4: data then 4 tail
  /// values in the 36.212 multiplexed layout).
  TurboDecodeResult decode_arranged(std::span<const std::int16_t> sys,
                                    std::span<const std::int16_t> p1,
                                    std::span<const std::int16_t> p2,
                                    std::span<std::uint8_t> bits_out,
                                    bool force_full_iterations = false);

 private:
  int k_;
  TurboDecodeConfig cfg_;
  QppInterleaver interleaver_;

  // Workspaces (allocated once; decoding is allocation-free).
  AlignedVector<std::int16_t> arranged_sys_, arranged_p1_, arranged_p2_;
  AlignedVector<std::int16_t> sys2_, apr1_, apr2_, ext_, lall_;
  AlignedVector<std::int16_t> alpha_store_;
  AlignedVector<std::int16_t> gs_;  ///< gamma-systematic scratch (3K)
  std::vector<std::uint8_t> hard_, hard_prev_;
};

namespace turbo_internal {

/// One constituent max-log-MAP pass (scalar reference). All spans size K
/// except tails (3 values each). `ext` receives unscaled extrinsics;
/// `lall` (optional, may be empty) receives full APP LLRs.
/// `gs_workspace` is caller-owned scratch of at least K int16 (the SIMD
/// variants need 3K); passing it in keeps every decode allocation-free
/// and deterministic — no hidden thread_local growth.
void map_decode_scalar(std::span<const std::int16_t> sys,
                       std::span<const std::int16_t> par,
                       std::span<const std::int16_t> apr,
                       const std::int16_t sys_tail[3],
                       const std::int16_t par_tail[3],
                       std::span<std::int16_t> ext,
                       std::span<std::int16_t> lall,
                       std::int16_t* alpha_workspace,
                       std::int16_t* gs_workspace);

/// The scalar reference kernel in the batched kernels' form (see
/// turbo_batch_impl.h), one block: K steps of gamma-systematic `gs` and
/// parity `gp`, boundary metrics `ainit` / `binit` (8 each), unscaled
/// extrinsics to `ext`; `alpha_ws` holds 8K values. map_decode_scalar
/// wraps it, and TurboBatchDecoder runs it at the scalar tier.
void map_decode_batch_scalar(std::size_t K, const std::int16_t* gs,
                             const std::int16_t* gp, const std::int16_t* ainit,
                             const std::int16_t* binit, std::int16_t* ext,
                             std::int16_t* alpha_ws);

/// SIMD constituent pass; `isa` selects 1/2/4-window decoding. The SSE
/// variant is bit-exact with map_decode_scalar. `gs_workspace` must hold
/// at least 3K int16 (gamma-systematic array plus the two step-major
/// transposes the windowed kernels build).
void map_decode_simd(IsaLevel isa, std::span<const std::int16_t> sys,
                     std::span<const std::int16_t> par,
                     std::span<const std::int16_t> apr,
                     const std::int16_t sys_tail[3],
                     const std::int16_t par_tail[3],
                     std::span<std::int16_t> ext,
                     std::span<std::int16_t> lall,
                     std::int16_t* alpha_workspace,
                     std::int16_t* gs_workspace);

/// Extrinsic scaling used between half-iterations: (3x)>>2 with the same
/// saturating construction in scalar and SIMD paths.
std::int16_t scale_extrinsic(std::int16_t e);

/// Full-width vectorized helpers (exposed for tests/benches).
void vec_sat_add(IsaLevel isa, std::span<const std::int16_t> a,
                 std::span<const std::int16_t> b, std::span<std::int16_t> out);
void vec_scale_extrinsic(IsaLevel isa, std::span<std::int16_t> e);

}  // namespace turbo_internal

}  // namespace vran::phy
