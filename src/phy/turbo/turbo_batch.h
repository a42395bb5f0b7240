// Batched-lane turbo decoder: B same-K code blocks decoded in parallel,
// one code block per 8-state SIMD lane group (1 block at SSE, 2 at AVX2,
// 4 at AVX-512).
//
// The windowed decoder (turbo_decoder.h) widens by splitting ONE block
// into register lanes, which forces approximate equal-metric window
// boundaries for NW > 1. Batching widens across blocks instead: each
// lane group carries a whole trellis with its exact boundary metrics
// (alpha from the known zero start state, beta trained from that block's
// own termination tails), so the batched output is bit-identical to the
// SSE single-block decoder at every register width.
//
// Early termination is per-lane voting: a block that passes its CRC (or
// repeats its hard decisions) freezes its output and stops contributing
// CRC checks, but its lanes keep riding along at full width — until at
// least half the batch has converged, at which point the survivors are
// compacted into the narrowest kernel that still covers them
// (4 -> 2 -> 1 lane groups) and the freed width is retired.
//
// The per-iteration state (systematic, interleaved systematic, a-priori,
// gamma and extrinsic streams) is kept step-major for the current lane
// assignment, `x[step * NW + lane]`, which is the layout the MAP kernels
// read and write. The QPP interleaver then moves all NW lanes of a step
// with one 2-, 4- or 8-byte copy, and no transposes run per iteration;
// a compaction re-packs the carried state once.
//
// Decoding is allocation-free: all workspaces are sized for capacity()
// blocks at construction.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/aligned.h"
#include "common/cpu_features.h"
#include "phy/crc/crc.h"
#include "phy/turbo/qpp_interleaver.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::phy {

struct TurboBatchConfig {
  int max_iterations = 6;
  /// Per-block: stop iterating a lane when hard decisions repeat.
  bool early_stop = true;
  /// When set, each iteration checks this CRC per unconverged block and
  /// freezes the block on success.
  std::optional<CrcType> crc;
  /// Widest register tier the batch may use; sets lane capacity.
  IsaLevel isa = IsaLevel::kSse41;
};

struct TurboBatchResult {
  int iterations = 0;
  bool crc_ok = false;
  bool converged = false;
};

/// One block's arranged input streams, each K+4 values in the 36.212
/// multiplexed layout (same contract as TurboDecoder::decode_arranged).
struct TurboBatchInput {
  std::span<const std::int16_t> sys, p1, p2;
};

/// Minimum trellis steps per register window for the windowed
/// (single-block) decoder's equal-metric boundary approximation to be
/// trusted. Below this the windows have too little run-in to converge
/// and can corrupt even noiseless blocks — fuzzing caught windowed
/// AVX-512 failing a clean K=816 block (204 steps/window) at MCS 28,
/// where heavy rate-matching puncturing starves the boundaries further.
/// 256 covers that observed failure with margin; blocks under the
/// threshold must be decoded by a batched-lane kernel instead (exact
/// full-K recursions at any width).
constexpr int kMinWindowSteps = 256;

/// True when windowed decoding of a K=`k` block at `isa` would run an
/// approximate multi-window kernel (NW > 1, i.e. AVX2/AVX-512) with
/// fewer than kMinWindowSteps trellis steps per window. Such blocks are
/// rerouted to TurboBatchDecoder by the pipeline's decode scheduler.
bool windowed_window_too_short(int k, IsaLevel isa);

class TurboBatchDecoder {
 public:
  explicit TurboBatchDecoder(int k, TurboBatchConfig cfg = {});

  /// Blocks decodable per call at `isa`: 1 (scalar/SSE), 2 (AVX2),
  /// 4 (AVX-512).
  static int lane_capacity(IsaLevel isa);

  int block_size() const { return k_; }
  int capacity() const { return capacity_; }
  const TurboBatchConfig& config() const { return cfg_; }

  /// Decode `blocks.size()` (<= capacity()) same-K blocks. `outs[b]`
  /// receives block b's K hard decisions; `results[b]` its per-block
  /// iteration count / CRC state. `force_full[b]` (optional, fault
  /// injection) disables that block's CRC-stop and repeat-detection
  /// exits so it burns every configured iteration.
  void decode_arranged(std::span<const TurboBatchInput> blocks,
                       std::span<const std::span<std::uint8_t>> outs,
                       std::span<TurboBatchResult> results,
                       std::span<const std::uint8_t> force_full = {});

 private:
  static constexpr int kMaxLanes = 4;

  int k_;
  int capacity_;
  TurboBatchConfig cfg_;
  QppInterleaver interleaver_;

  // Step-major workspaces for the current lane assignment, K * NW values
  // each (sized for capacity() lanes). Streams of the current blocks:
  AlignedVector<std::int16_t> tsys_, tsys2_, tp1_, tp2_;
  // Carried a-priori (apr1_, natural order) and per-half-iteration
  // buffers: apr2_ (interleaved order), gamma-systematic and extrinsics.
  AlignedVector<std::int16_t> apr1_, apr2_, gs_, ext_;
  AlignedVector<std::int16_t> alpha_ws_;
  AlignedVector<std::int16_t> zeros_;  ///< source for unused lanes
  // Per-block hard decisions in natural order, K bytes per block.
  std::vector<std::uint8_t> hard_, hard_prev_;

  // Per-block boundary state, indexed by block position in `blocks`.
  std::int16_t beta_tail1_[kMaxLanes][8];
  std::int16_t beta_tail2_[kMaxLanes][8];
  // Packed per-slot boundary metrics for the current lane assignment.
  alignas(64) std::int16_t ainit_[kMaxLanes * 8];
  alignas(64) std::int16_t binit1_[kMaxLanes * 8];
  alignas(64) std::int16_t binit2_[kMaxLanes * 8];
};

}  // namespace vran::phy
