// Batched-lane turbo decoder: up to B code blocks decoded in parallel,
// one code block per 8-state SIMD lane group (1 block at scalar and SSE,
// 2 at AVX2, 4 at AVX-512). It is the only decode route of the pipeline.
//
// The windowed decoder (turbo_decoder.h) widens by splitting ONE block
// into register lanes, which forces approximate equal-metric window
// boundaries for NW > 1. Batching widens across blocks instead: each
// lane group carries a whole trellis with its exact boundary metrics
// (alpha from the known zero start state, beta trained from that block's
// own termination tails), so the batched output is bit-identical to the
// single-block decoder at every register width, and to the scalar
// reference, which the scalar tier runs in its one lane.
//
// The decoder is K-agnostic: it accepts any legal K up to the
// constructor's k_max, and one call may mix block sizes. The blocks of a
// call are right-aligned on the longest one: a block of K_b steps
// occupies steps [K - K_b, K) of the K-step lane streams, with padding
// before it (turbo_batch_impl.h). Every legal K is a multiple of 8, so
// each start step keeps the four-step extrinsic rounds and the
// eight-step hard-decision rounds.
//
// Early termination is per-lane voting: a block that passes its CRC (or
// repeats its hard decisions) freezes its output and stops contributing
// CRC checks, but its lanes keep riding along at full width — until at
// least half the batch has converged, at which point the survivors are
// compacted into the narrowest kernel that still covers them
// (4 -> 2 -> 1 lane groups), re-aligned on the longest survivor, and
// the freed width and steps are retired.
//
// The per-iteration state (systematic, interleaved systematic, a-priori,
// gamma and extrinsic streams) is kept step-major for the current lane
// assignment, `x[step * NW + lane]`, which is the layout the MAP kernels
// read and write. Adjacent lanes whose blocks share K form a run, and
// the QPP interleaver moves all lanes of a run with one copy per step
// (2 to 8 bytes): a same-K group is one run of NW lanes, and a mixed
// group sorted by K needs one run per distinct K. A compaction re-packs
// the carried state once.
//
// Decoding is allocation-free: all workspaces are sized for capacity()
// blocks of k_max at construction, and the QPP permutations are views
// into the one table of all sizes that every decoder shares
// (qpp_interleaver.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/cpu_features.h"
#include "phy/crc/crc.h"
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

class TurboBatchDecoder {
 public:
  /// `k_max`: the longest block (a legal QPP size) the decoder accepts.
  explicit TurboBatchDecoder(int k_max, TurboBatchConfig cfg = {});

  /// Blocks decodable per call at `isa`: 1 (scalar/SSE), 2 (AVX2),
  /// 4 (AVX-512).
  static int lane_capacity(IsaLevel isa);

  int max_block_size() const { return k_max_; }
  int capacity() const { return capacity_; }
  const TurboBatchConfig& config() const { return cfg_; }

  /// Decode `blocks.size()` (<= capacity()) blocks of any legal K up to
  /// max_block_size(), each K taken from its input spans (K+4 values).
  /// `outs[b]` receives block b's K hard decisions; `results[b]` its
  /// per-block iteration count / CRC state. `force_full[b]` (optional,
  /// fault injection) disables that block's CRC-stop and
  /// repeat-detection exits so it burns every configured iteration.
  void decode_arranged(std::span<const TurboBatchInput> blocks,
                       std::span<const std::span<std::uint8_t>> outs,
                       std::span<TurboBatchResult> results,
                       std::span<const std::uint8_t> force_full = {});

 private:
  static constexpr int kMaxLanes = 4;

  int k_max_;
  int capacity_;
  TurboBatchConfig cfg_;

  // Step-major workspaces for the current lane assignment, k_max * NW
  // values each (sized for capacity() lanes). Streams of the current
  // blocks:
  AlignedVector<std::int16_t> tsys_, tsys2_, tp1_, tp2_;
  // Carried a-priori (apr1_, natural order) and per-half-iteration
  // buffers: apr2_ (interleaved order), gamma-systematic and extrinsics.
  AlignedVector<std::int16_t> apr1_, apr2_, gs_, ext_;
  AlignedVector<std::int16_t> alpha_ws_;
  // Per-block hard decisions in natural order, k_max bytes per block.
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
