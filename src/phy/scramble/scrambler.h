// 3GPP TS 36.211 §7.2 pseudo-random (Gold) sequence generation and the
// bit-scrambling / LLR-descrambling stages.
//
// c(n) = (x1(n + Nc) + x2(n + Nc)) mod 2, Nc = 1600, where x1/x2 are
// length-31 LFSRs; x1 starts at 000...01 and x2 at c_init.
//
// One word-parallel generator serves every entry point (DESIGN.md §5i):
// x(n+31) reaches back only to x(n+3), so each register step yields 28
// new bits at once, and the Nc warm-up is a constant (x1) plus a
// compile-time GF(2) linear map of c_init (x2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cpu_features.h"

namespace vran::phy {

/// Generate `n` Gold-sequence bits for a given c_init.
std::vector<std::uint8_t> gold_sequence(std::uint32_t c_init, std::size_t n);

/// PUSCH scrambling initialization (36.211 §5.3.1):
/// c_init = rnti * 2^14 + q * 2^13 + floor(ns/2) * 2^9 + cell_id.
std::uint32_t pusch_c_init(std::uint16_t rnti, int q, int ns, int cell_id);

/// Streaming generator — keeps LFSR state so consecutive blocks of one
/// codeword don't regenerate the prefix. `next()` and `next32()` may be
/// mixed freely; both draw from the same bit stream.
class GoldSequence {
 public:
  explicit GoldSequence(std::uint32_t c_init);
  /// The next sequence bit (0/1).
  std::uint8_t next();
  /// The next 32 sequence bits, the earliest in bit 0.
  std::uint32_t next32();
  void generate(std::span<std::uint8_t> out);

 private:
  void refill();

  std::uint32_t x1_;  // bits n..n+30 of x1 at positions 0..30
  std::uint32_t x2_;
  std::uint64_t buf_ = 0;  // generated, unconsumed bits, earliest in bit 0
  int have_ = 0;
};

/// XOR-scramble bits in place (transmitter).
void scramble_bits(std::span<std::uint8_t> bits, std::uint32_t c_init);

/// Descramble soft LLRs in place (receiver): where c = 1 the LLR becomes
/// the saturating 0 - v (so -32768 maps to 32767). Works for any LLR
/// convention since scrambling is an involution. Every tier gives the
/// same bytes.
void descramble_llr(std::span<std::int16_t> llr, std::uint32_t c_init,
                    IsaLevel isa = best_isa());

}  // namespace vran::phy
