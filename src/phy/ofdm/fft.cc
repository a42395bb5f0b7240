#include "phy/ofdm/fft.h"

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>

#include "phy/ofdm/ofdm_simd.h"

namespace vran::phy {

namespace {

/// One radix-2 stage of half-length `half`; kScale multiplies its outputs
/// by `scale` before they are stored.
template <bool kScale>
void scalar_stage(Cf* data, std::size_t n, std::size_t half, const float* wre,
                  const float* wim, float scale) {
  for (std::size_t start = 0; start < n; start += 2 * half) {
    for (std::size_t k = 0; k < half; ++k) {
      const float wr = wre[2 * k];
      const float wi = wim[2 * k + 1];
      const Cf x = data[start + k + half];
      const float vr = x.real() * wr - x.imag() * wi;
      const float vi = x.real() * wi + x.imag() * wr;
      const Cf u = data[start + k];
      Cf a(u.real() + vr, u.imag() + vi);
      Cf b(u.real() - vr, u.imag() - vi);
      if constexpr (kScale) {
        a = Cf(a.real() * scale, a.imag() * scale);
        b = Cf(b.real() * scale, b.imag() * scale);
      }
      data[start + k] = a;
      data[start + k + half] = b;
    }
  }
}

/// Scalar reference butterfly stages over bit-reversed `data` — the
/// arithmetic schedule every SIMD tier reproduces bit-for-bit (see
/// fft.h). Explicit float butterfly: std::complex operator* carries
/// NaN/Inf fix-up branches that triple the cost of the hot loop, and its
/// operation order is unspecified — spelling the mul/add sequence out is
/// what pins the contract.
void fft_pass_scalar(Cf* data, std::size_t n, simd::FftTwiddles tw,
                     bool normalize) {
  const float scale = 1.0f / static_cast<float>(n);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const float* wre = tw.re + 2 * half;
    const float* wim = tw.im + 2 * half;
    if (normalize && 2 * half == n) {
      scalar_stage<true>(data, n, half, wre, wim, scale);
    } else {
      scalar_stage<false>(data, n, half, wre, wim, scale);
    }
  }
  if (normalize && n == 1) {
    data[0] = Cf(data[0].real() * scale, data[0].imag() * scale);
  }
}

/// out[i] = in[bit-reversed i], the read order of the SSE, AVX2 and
/// scalar tiers. For n >= 8, i = 8q + lo reads rev3(lo)·n/8 + rev(q):
/// eight copies per step of a counter that runs in bit-reversed order.
void bitrev_copy(const Cf* in, Cf* out, std::size_t n) {
  if (n < 8) {
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 1, t = n >> 1; b < n; b <<= 1, t >>= 1) {
        if (i & b) r |= t;
      }
      out[i] = in[r];
    }
    return;
  }
  const std::size_t rows = n / 8;
  std::size_t base = 0;
  for (std::size_t q = 0; q < rows; ++q) {
    const Cf* s = in + base;
    Cf* o = out + 8 * q;
    o[0] = s[0];
    o[1] = s[4 * rows];
    o[2] = s[2 * rows];
    o[3] = s[6 * rows];
    o[4] = s[rows];
    o[5] = s[5 * rows];
    o[6] = s[3 * rows];
    o[7] = s[7 * rows];
    base = simd::reversed_next(base, rows);
  }
}

/// Minimum transform size of each tier's kernel; below it the
/// dispatcher falls back a tier.
std::size_t min_size(IsaLevel isa) {
  switch (isa) {
    case IsaLevel::kAvx512: return simd::kAvx512FftBlock;
    case IsaLevel::kAvx2: return simd::kAvx2ComplexLanes;
    case IsaLevel::kSse41: return simd::kSseComplexLanes;
    case IsaLevel::kScalar: return 1;
  }
  return 1;
}

}  // namespace

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("FftPlan: size must be a power of two");
  }
  // Per-stage contiguous twiddles: stage half h at complex offset h,
  // entry k is e^(-2*pi*i * k * step / n) with step = n / (2h) — the same
  // double -> float values the radix-2 loop has always used. The inverse
  // conjugates; both are split for the complex multiply (FftTwiddles).
  for (auto* v : {&fwd_re_, &fwd_im_, &inv_re_, &inv_im_}) v->assign(2 * n, 0);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t step = n / (half << 1);
    for (std::size_t k = 0; k < half; ++k) {
      const double ang =
          -2.0 * std::numbers::pi * double(k * step) / double(n);
      const float wr = static_cast<float>(std::cos(ang));
      const float wi = static_cast<float>(std::sin(ang));
      const std::size_t j = 2 * (half + k);
      fwd_re_[j] = fwd_re_[j + 1] = inv_re_[j] = inv_re_[j + 1] = wr;
      fwd_im_[j] = -wi;
      fwd_im_[j + 1] = wi;
      inv_im_[j] = wi;
      inv_im_[j + 1] = -wi;
    }
  }
}

void FftPlan::transform(std::span<const Cf> in, std::span<Cf> out,
                        bool inverse, IsaLevel isa) const {
  if (in.size() != n_ || out.size() != n_) {
    throw std::invalid_argument("FFT size mismatch");
  }
  const std::less<const Cf*> before;
  if (before(in.data(), out.data() + n_) &&
      before(out.data(), in.data() + n_)) {
    throw std::invalid_argument("FFT input and output overlap");
  }
  // Clamp to what the CPU can execute (never SIGILL on a forced tier)
  // and to the kernels' minimum size for tiny transforms.
  IsaLevel tier = std::min(isa, cpu_features().best());
  while (tier > IsaLevel::kScalar && n_ < min_size(tier)) {
    tier = static_cast<IsaLevel>(static_cast<int>(tier) - 1);
  }
  const simd::FftTwiddles tw =
      inverse ? simd::FftTwiddles{inv_re_.data(), inv_im_.data()}
              : simd::FftTwiddles{fwd_re_.data(), fwd_im_.data()};
  if (tier == IsaLevel::kAvx512) {
    simd::fft_avx512(in.data(), out.data(), n_, tw, inverse);
    return;
  }
  bitrev_copy(in.data(), out.data(), n_);
  switch (tier) {
    case IsaLevel::kAvx2:
      simd::fft_pass_avx2(out.data(), n_, tw, inverse);
      break;
    case IsaLevel::kSse41:
      simd::fft_pass_sse(out.data(), n_, tw, inverse);
      break;
    default:
      fft_pass_scalar(out.data(), n_, tw, inverse);
      break;
  }
}

void FftPlan::forward(std::span<const Cf> in, std::span<Cf> out,
                      IsaLevel isa) const {
  transform(in, out, false, isa);
}
void FftPlan::inverse(std::span<const Cf> in, std::span<Cf> out,
                      IsaLevel isa) const {
  transform(in, out, true, isa);
}

void FftPlan::forward(std::span<Cf> data, IsaLevel isa) const {
  const std::vector<Cf> in(data.begin(), data.end());
  transform(in, data, false, isa);
}
void FftPlan::inverse(std::span<Cf> data, IsaLevel isa) const {
  const std::vector<Cf> in(data.begin(), data.end());
  transform(in, data, true, isa);
}
void FftPlan::forward(std::span<Cf> data) const { forward(data, best_isa()); }
void FftPlan::inverse(std::span<Cf> data) const { inverse(data, best_isa()); }

const FftPlan& shared_fft_plan(std::size_t n) {
  // Plans are immutable and never evicted, so a reference handed out
  // under the lock stays valid for the process lifetime (map nodes are
  // stable).
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<FftPlan>> plans;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = plans[n];
  if (!slot) slot = std::make_unique<FftPlan>(n);
  return *slot;
}

void fft_forward(std::span<Cf> data) {
  shared_fft_plan(data.size()).forward(data);
}
void fft_inverse(std::span<Cf> data) {
  shared_fft_plan(data.size()).inverse(data);
}

std::vector<Cf> dft_reference(std::span<const Cf> in, bool inverse) {
  const std::size_t n = in.size();
  std::vector<Cf> out(n);
  const double sign = inverse ? 2.0 : -2.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc = 0;
    for (std::size_t t = 0; t < n; ++t) {
      const double ang = sign * std::numbers::pi * double(k * t) / double(n);
      acc += std::complex<double>(in[t]) *
             std::complex<double>(std::cos(ang), std::sin(ang));
    }
    if (inverse) acc /= double(n);
    out[k] = Cf(static_cast<float>(acc.real()), static_cast<float>(acc.imag()));
  }
  return out;
}

}  // namespace vran::phy
