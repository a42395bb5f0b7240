// OFDM symbol (de)modulation: subcarrier mapping around DC, IFFT + cyclic
// prefix on transmit; CP removal, FFT and subcarrier extraction on
// receive. Geometry follows LTE 5 MHz FDD (the paper's testbed
// configuration): 25 PRBs = 300 used subcarriers, 512-point FFT.
//
// The whole chain is SIMD-dispatched (SSE / AVX2 / AVX-512) and bound
// by the float exactness contract in fft.h: every tier produces
// float-bit-identical grids and byte-identical Q12 output. The Q12
// quantizer rounds half-to-even (matching CVTPS2DQ under the default
// MXCSR); see TESTING.md "Float-kernel exactness".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cpu_features.h"
#include "phy/modulation/modulation.h"
#include "phy/ofdm/fft.h"

namespace vran::phy {

struct OfdmConfig {
  int nfft = 512;        ///< FFT size
  int used_subcarriers = 300;  ///< must be even and < nfft
  int cp_len = 36;       ///< cyclic-prefix samples (normal CP, 5 MHz)
  float iq_scale = 1.0f / 4096.0f;  ///< Q12 int16 -> float conversion
};

/// Samples per OFDM symbol on the wire.
constexpr int ofdm_symbol_samples(const OfdmConfig& c) {
  return c.nfft + c.cp_len;
}
/// Data-carrying resource elements per OFDM symbol.
constexpr int ofdm_symbol_capacity(const OfdmConfig& c) {
  return c.used_subcarriers;
}

class OfdmModulator {
 public:
  /// `isa` selects the kernel tier for the FFT and the Q12 convert /
  /// quantize paths; it is clamped to what the executing CPU supports.
  /// Output is identical at every tier (exactness contract, fft.h).
  explicit OfdmModulator(OfdmConfig cfg, IsaLevel isa = best_isa());

  const OfdmConfig& config() const { return cfg_; }
  IsaLevel isa() const { return isa_; }

  /// Map `used_subcarriers` QAM samples onto one OFDM symbol (IFFT + CP).
  /// Output is nfft + cp_len complex time samples.
  std::vector<Cf> modulate_symbol(std::span<const IqSample> res) const;

  /// Inverse: strip CP, FFT, extract the used subcarriers back to Q12.
  std::vector<IqSample> demodulate_symbol(std::span<const Cf> time) const;

  /// Multi-symbol convenience: the final symbol's missing REs are zero.
  std::vector<Cf> modulate(std::span<const IqSample> res) const;
  std::vector<IqSample> demodulate(std::span<const Cf> time,
                                   std::size_t re_count) const;

  /// modulate() into a caller-owned buffer: `time` is resized to the
  /// symbols' samples and reuses its capacity, so a buffer kept across
  /// calls stops allocating once it has held the largest count (it
  /// briefly holds nfft more samples, the IFFT's input grid).
  /// Bit-identical to modulate(res).
  void modulate_into(std::span<const IqSample> res,
                     std::vector<Cf>& time) const;

  /// Allocation-free demodulate: writes the first `out.size()` REs into
  /// `out`. Each symbol's FFT reads `time` right after its cyclic prefix
  /// and writes its grid to `fft_scratch` (>= nfft samples,
  /// caller-owned). Bit-identical to demodulate(time, out.size()).
  void demodulate_into(std::span<const Cf> time, std::span<IqSample> out,
                       std::span<Cf> fft_scratch) const;

 private:
  /// Quantize the first `count` used REs of a frequency grid into
  /// `out`. The used subcarriers sit in two contiguous runs around DC
  /// (negative bins nfft-half.. -> REs 0..half-1, positive bins 1.. ->
  /// REs half..), so each run is one dispatched convert-kernel call.
  void extract_res(const Cf* grid, IqSample* out, std::size_t count) const;

  /// Write the first `count` (<= used_subcarriers) REs of one symbol
  /// into the zeroed frequency grid `grid` (nfft), zero its remaining
  /// used bins, and IFFT it into out[cp_len..] with the cyclic prefix
  /// copied from the symbol's tail into out[0..cp_len).
  void modulate_symbol_into(const IqSample* res, std::size_t count,
                            std::span<Cf> grid, Cf* out) const;

  OfdmConfig cfg_;
  const FftPlan* plan_;  ///< shared_fft_plan(nfft)
  IsaLevel isa_;
};

}  // namespace vran::phy
