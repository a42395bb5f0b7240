// 3GPP TS 36.212 §5.1.4.1 rate matching for turbo-coded transport
// channels: per-stream sub-block interleaving, bit collection into the
// circular buffer, and bit selection/pruning; plus the receiver-side
// inverse that soft-combines repeated bits and emits the decoder's
// triple-interleaved LLR stream.
//
// The de-rate-matcher deliberately produces the (d0,d1,d2)-interleaved
// int16 stream of length 3*(K+4): that is the exact input format of the
// turbo decoder's *data arrangement* step the paper studies — the stage
// boundary where APCM operates.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/cpu_features.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::phy {

/// Sub-block interleaver geometry for a stream of D bits.
struct SubblockGeometry {
  int d = 0;        ///< input length (K + 4)
  int rows = 0;     ///< R_subblock
  int kp = 0;       ///< 32 * rows (padded length)
  int nulls = 0;    ///< kp - d dummy positions
};
SubblockGeometry subblock_geometry(int d);

/// The inter-column permutation pattern (36.212 Table 5.1.4-1).
std::span<const int> subblock_column_permutation();

/// Position maps: v0_src[i] = index into the null-padded input y (0..kp)
/// that lands at output position i, for streams d0/d1; v2_src for d2.
/// The 36.212 reference the tests rebuild the per-position algorithm
/// from; RateMatcher itself keeps only the geometry.
struct SubblockMap {
  SubblockGeometry geo;
  std::vector<int> v0_src;  ///< for d0 and d1
  std::vector<int> v2_src;  ///< for d2
};
SubblockMap subblock_map(int d);

namespace simd {
struct RmGeometry;
}

/// Rate matcher for one code block; reusable across calls of equal K.
///
/// It stores the 36.212 geometry instead of per-position tables
/// (DESIGN.md §5j): nulls sit only in row 0 of a column, plus the last
/// slot of v2, so the circular buffer is 2N contiguous runs of usable
/// positions. Combining and bit selection walk those runs from
/// k0; triple extraction and bit collection are R x 32 transposes. The
/// methods are const and stateless, so one matcher may serve many
/// threads, and the receive side never allocates. Each takes a trailing
/// ISA tier (clamped to the CPU) and writes the same bytes at every tier.
class RateMatcher {
 public:
  /// `k` is the turbo block size (streams are K + 4 long).
  explicit RateMatcher(int k);

  int block_size() const { return k_; }
  /// Circular-buffer length K_w = 3 * K_pi.
  int buffer_size() const { return 3 * geo_.kp; }
  /// buffer_size() for block size `k` without constructing a matcher —
  /// lets callers size HARQ/workspace buffers up front.
  static int buffer_size_for(int k);
  /// Number of non-null positions in the circular buffer.
  int usable_size() const { return usable_; }

  /// Starting offset k0 for redundancy version rv (0..3).
  int k0(int rv) const;

  /// Encode side: select `e` output bits for redundancy version `rv` from
  /// a turbo codeword.
  std::vector<std::uint8_t> match(const TurboCodeword& cw, int e, int rv = 0,
                                  IsaLevel isa = best_isa()) const;

  /// Receiver side: soft-combine `e` LLRs (the output of the demapper)
  /// back into d-stream LLR triples [d0_k d1_k d2_k ...], length 3*(K+4).
  /// Repeated positions accumulate with int16 saturation. LLRs at
  /// punctured (never-sent) positions come out as 0.
  AlignedVector<std::int16_t> dematch(std::span<const std::int16_t> llr,
                                      int rv = 0,
                                      IsaLevel isa = best_isa()) const;

  /// In-place variant accumulating into an existing buffer (HARQ-style
  /// combining across retransmissions). `w_llr` must be buffer_size().
  /// Accumulation clamps symmetrically to ±32767 (sat_add16_sym) so
  /// combining x then -x always cancels back to 0 — INT16_MIN is never
  /// stored, keeping repeated retransmissions and sign-flip faults
  /// unbiased.
  void dematch_accumulate(std::span<const std::int16_t> llr, int rv,
                          std::span<std::int16_t> w_llr,
                          IsaLevel isa = best_isa()) const;

  /// Convert an accumulated circular buffer into the decoder triple
  /// stream.
  AlignedVector<std::int16_t> buffer_to_triples(
      std::span<const std::int16_t> w_llr, IsaLevel isa = best_isa()) const;

  /// Allocation-free variant writing into caller-provided storage;
  /// `triples.size()` must be exactly 3 * (K + 4). Every element is
  /// written.
  void buffer_to_triples_into(std::span<const std::int16_t> w_llr,
                              std::span<std::int16_t> triples,
                              IsaLevel isa = best_isa()) const;

  /// Hard ceiling on circular-buffer repetition: match()/dematch paths
  /// refuse E > kMaxRepetition * usable_size() instead of walking the
  /// buffer essentially forever on absurd inputs. 36.212 practice is
  /// E <= ~3 circles; 64 leaves generous headroom for stress tests.
  static constexpr int kMaxRepetition = 64;

  /// One contiguous stretch of usable circular-buffer positions.
  struct Run {
    std::int32_t start = 0;
    std::int32_t len = 0;
  };
  /// The runs in buffer order: 2N of them for the 188 legal K (N is 4,
  /// 12, 20 or 28, so at most 56), and never more than kMaxRuns for any K.
  std::span<const Run> runs() const { return {runs_.data(), n_runs_}; }
  static constexpr std::size_t kMaxRuns = 64;

 private:
  simd::RmGeometry kernel_geometry() const;

  int k_;
  SubblockGeometry geo_;
  int usable_ = 0;
  std::size_t n_runs_ = 0;
  std::array<Run, kMaxRuns> runs_{};
  /// P^-1[p] * R: first slot of the column holding y-order residue p.
  std::array<std::int32_t, 32> col_base_{};
};

}  // namespace vran::phy
