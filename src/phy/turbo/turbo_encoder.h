// 3GPP TS 36.212 §5.1.3.2 rate-1/3 parallel concatenated convolutional
// (turbo) encoder.
//
// Two identical 8-state recursive systematic convolutional (RSC)
// constituent encoders with transfer function G(D) = [1, g1(D)/g0(D)],
//   g0(D) = 1 + D^2 + D^3   (feedback)
//   g1(D) = 1 + D  + D^3    (parity)
// The second encoder sees the QPP-interleaved input. Trellis termination
// appends 12 tail bits, distributed over the three output streams so each
// stream carries K + 4 bits:
//   d0 = systematic (+4 tail), d1 = parity 1 (+4), d2 = parity 2 (+4).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "phy/turbo/qpp_interleaver.h"

namespace vran::phy {

/// Number of trellis states of one constituent encoder.
inline constexpr int kTurboStates = 8;
/// Tail bits appended per output stream.
inline constexpr int kTurboTail = 4;

/// One RSC constituent encoder step: from `state` (3 bits, bit0 newest)
/// with input `u`, returns parity bit and advances the state.
struct RscStep {
  int next_state;
  int parity;
};
RscStep rsc_step(int state, int u);

/// Encode one code block. `bits` holds K one-bit-per-byte values, K a
/// legal QPP size (throws std::invalid_argument otherwise). Outputs are
/// resized to K + 4.
struct TurboCodeword {
  std::vector<std::uint8_t> d0;  ///< systematic
  std::vector<std::uint8_t> d1;  ///< parity, encoder 1
  std::vector<std::uint8_t> d2;  ///< parity, encoder 2
};
TurboCodeword turbo_encode(std::span<const std::uint8_t> bits);

/// Encoder for one block size K. It holds only K: both constituents step
/// eight input bits per table lookup, and the second reads its input
/// through the shared all-sizes QPP table (qpp_table), which the first
/// encode of the process builds. Throws std::invalid_argument for an
/// illegal K.
class TurboEncoder {
 public:
  explicit TurboEncoder(int k);
  int block_size() const { return k_; }
  TurboCodeword encode(std::span<const std::uint8_t> bits) const;

 private:
  int k_;
};

}  // namespace vran::phy
