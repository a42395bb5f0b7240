// 3GPP TS 36.211 Table 7.1.x constellation mapping and max-log soft
// demapping, int16 fixed-point I/Q (Q12: unit amplitude = 4096).
//
// LLR convention matches the turbo decoder: positive LLR = bit 1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/cpu_features.h"

namespace vran::phy {

enum class Modulation : std::uint8_t { kQpsk = 2, k16Qam = 4, k64Qam = 6 };

constexpr int bits_per_symbol(Modulation m) { return static_cast<int>(m); }
const char* modulation_name(Modulation m);

/// Fixed-point I/Q pair (Q12).
struct IqSample {
  std::int16_t i = 0;
  std::int16_t q = 0;
  friend bool operator==(const IqSample&, const IqSample&) = default;
};

/// Unit-energy amplitude in Q12.
inline constexpr int kIqScale = 4096;

/// Default LLR scale of the demappers (LLR units per unit of d / n0).
inline constexpr double kDefaultLlrScale = 8.0;

/// Largest LLR magnitude the demappers emit: every LLR is clamped to
/// [-kLlrMagnitudeCap, kLlrMagnitudeCap] before rounding, at every tier.
///
/// The cap protects the turbo decoder's int16 path metrics. They are
/// normalized against state 0 each step and floored at -16384
/// (kMetricFloor), and the spread between the 8 states spans several
/// branch metrics of |sys + a-priori| + |parity| each; rate-matching
/// repetition and HARQ combining can add channel LLRs further. Uncapped,
/// QPSK LLRs reach ~16000 at 30 dB, the spread saturates, the state
/// ordering is lost, and every MCS-4 TB failed its CRC from about 28 dB
/// up (16QAM from about 35 dB). With the cap at 8191 some MCS-4 TBs
/// still fail; at 4095 a sweep over MCS 0-28 at 25-70 dB decodes every
/// TB (test_bler HighSnrDecodesAtEveryTier pins the worst cases). The
/// cap binds only above about 24 dB for QPSK, and higher for 16/64QAM,
/// where no decision is in doubt, so sensitivity at the waterfall is
/// unchanged.
inline constexpr int kLlrMagnitudeCap = 4095;

/// The 2^bits constellation points for `m`, indexed by the bit group
/// (MSB-first, per the 36.211 tables).
std::span<const IqSample> constellation(Modulation m);

/// Map bits (one per byte, size divisible by bits_per_symbol) to symbols.
std::vector<IqSample> modulate(std::span<const std::uint8_t> bits,
                               Modulation m);

/// Exact max-log demapper under AWGN with noise variance `n0_q12`
/// (complex-noise power in the same Q12 units as the symbols):
/// llr(b) = (min_{s:b=0} |y-s|^2 - min_{s:b=1} |y-s|^2) / n0, scaled by
/// `llr_scale`, clamped to +-kLlrMagnitudeCap and rounded half away from
/// zero. Output has
/// bits_per_symbol * symbols entries.
///
/// Gray-mapped square QAM is I/Q-separable, so the per-bit minima are
/// taken over at most 8 axis levels instead of the full constellation —
/// identical values to the exhaustive search at a fraction of the cost.
AlignedVector<std::int16_t> demodulate_llr(std::span<const IqSample> symbols,
                                           Modulation m, double n0_q12,
                                           double llr_scale = kDefaultLlrScale);

/// Allocation-free variant writing into caller-provided storage;
/// `out.size()` must be exactly bits_per_symbol(m) * symbols.size().
/// `isa` picks the kernel tier (clamped to what the CPU supports); every
/// tier writes the same bytes (DESIGN.md §5i).
void demodulate_llr_into(std::span<const IqSample> symbols, Modulation m,
                         double n0_q12, std::span<std::int16_t> out,
                         double llr_scale = kDefaultLlrScale, IsaLevel isa = best_isa());

/// O(2^bits)-per-symbol exhaustive reference of the same computation
/// (tests assert bit-identical output).
AlignedVector<std::int16_t> demodulate_llr_exhaustive(
    std::span<const IqSample> symbols, Modulation m, double n0_q12,
    double llr_scale = kDefaultLlrScale);

/// Hard demapping (nearest constellation point), used by tests.
std::vector<std::uint8_t> demodulate_hard(std::span<const IqSample> symbols,
                                          Modulation m);

}  // namespace vran::phy
