// Iterative radix-2 complex FFT used by the OFDM modulator/demodulator,
// with SSE / AVX2 / AVX-512 kernels behind runtime ISA dispatch.
//
// Exactness contract (see TESTING.md "Float-kernel exactness"): every
// tier executes the SAME arithmetic schedule — the identical radix-2
// decimation-in-time stage decomposition, the identical per-stage
// twiddle values (one table per direction, precomputed once per plan,
// shared by all tiers), complex multiplies as two mul + one add/sub per
// component in a fixed order, the inverse's 1/N as one multiply of each
// last-stage output, and no FMA contraction anywhere (the SIMD
// translation units compile with -ffp-contract=off). SIMD lanes only
// carry *independent* butterflies, so each output element's rounding
// history is identical at every tier: the tiers are float-bit-identical
// to the scalar path, not merely close. That is what lets the OFDM
// harness assert byte-identical Q12 output across tiers instead of a
// tolerance.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/cpu_features.h"

namespace vran::phy {

using Cf = std::complex<float>;

/// Precomputed per-stage twiddle plan for one power-of-two size.
/// Immutable after construction; safe to share across threads.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const { return n_; }

  /// Out-of-place DFT of `in` (n samples, read in bit-reversed order)
  /// into `out` (n samples); the ranges must not overlap. Forward is
  /// unnormalized, inverse normalized by 1/N. `isa` is clamped to the
  /// executing CPU's capability, and sizes below a tier's minimum
  /// block fall back a tier. Bit-identical across every tier by the
  /// exactness contract above.
  void forward(std::span<const Cf> in, std::span<Cf> out, IsaLevel isa) const;
  void inverse(std::span<const Cf> in, std::span<Cf> out, IsaLevel isa) const;

  /// In-place variants: copy `data` aside and run the out-of-place
  /// kernel back into it (allocates; not for hot paths).
  void forward(std::span<Cf> data) const;
  void inverse(std::span<Cf> data) const;
  void forward(std::span<Cf> data, IsaLevel isa) const;
  void inverse(std::span<Cf> data, IsaLevel isa) const;

 private:
  void transform(std::span<const Cf> in, std::span<Cf> out, bool inverse,
                 IsaLevel isa) const;

  std::size_t n_;
  // Per direction, the stage twiddles pre-split for the complex
  // multiply, 2n floats each (layout: simd::FftTwiddles).
  AlignedVector<float> fwd_re_, fwd_im_, inv_re_, inv_im_;
};

/// The process-wide immutable plan for size `n`, built on first use.
/// Plans are never evicted, so the reference stays valid for the
/// process lifetime; safe to call concurrently from any number of
/// threads over any mix of sizes (TSan-covered by test_ofdm_simd).
const FftPlan& shared_fft_plan(std::size_t n);

/// One-shot in-place helpers over shared_fft_plan(data.size()).
void fft_forward(std::span<Cf> data);
void fft_inverse(std::span<Cf> data);

/// O(n^2) reference DFT in double precision for tests (the independent
/// oracle the ULP bounds are measured against).
std::vector<Cf> dft_reference(std::span<const Cf> in, bool inverse);

}  // namespace vran::phy
