// Synthetic radio channel: substitutes the paper's Ettus B210 RF front
// end and over-the-air link (see DESIGN.md). AWGN with configurable SNR
// plus int16 quantization exercises the identical receive path — the
// decode-side instruction mix the paper profiles is independent of how
// the noise got onto the samples.
//
// The noise comes from a counter-based block kernel (noise_simd.h,
// DESIGN.md §5k): fresh for every sample of every call, and
// bit-identical at every ISA tier for a given seed and call sequence.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/cpu_features.h"
#include "phy/modulation/modulation.h"
#include "phy/ofdm/fft.h"

namespace vran::phy {

class AwgnChannel {
 public:
  /// `snr_db` is Es/N0 per received sample; `seed` makes runs repeatable
  /// (through seed_stream, so VRAN_SEED perturbs it). `isa` selects the
  /// noise kernel tier, clamped to what the executing CPU supports; the
  /// noise is the same at every tier.
  explicit AwgnChannel(double snr_db, std::uint64_t seed = 1,
                       IsaLevel isa = best_isa());

  double snr_db() const { return snr_db_; }

  /// Complex-noise variance for unit-energy symbols.
  double n0() const { return n0_; }
  /// Same in Q12^2 units (for the demapper on int16 symbols).
  double n0_q12() const { return n0_ * double(kIqScale) * double(kIqScale); }

  /// Add noise to float time-domain samples (unit average symbol energy).
  void apply(std::span<Cf> samples);

  /// Add noise directly to Q12 int16 I/Q symbols (rounded to nearest,
  /// saturating).
  void apply(std::span<IqSample> symbols);

 private:
  double snr_db_;
  double n0_;
  float sigma_;            ///< per-component noise standard deviation
  std::uint64_t key_;      ///< noise stream key
  std::uint64_t next_ = 0; ///< index of the stream's next sample
  IsaLevel isa_;
};

/// Bit-error bookkeeping across blocks.
struct ErrorStats {
  std::uint64_t bits = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t blocks = 0;
  std::uint64_t block_errors = 0;

  void add_block(std::span<const std::uint8_t> tx,
                 std::span<const std::uint8_t> rx);
  double ber() const { return bits ? double(bit_errors) / double(bits) : 0.0; }
  double bler() const {
    return blocks ? double(block_errors) / double(blocks) : 0.0;
  }
};

}  // namespace vran::phy
