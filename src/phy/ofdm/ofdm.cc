#include "phy/ofdm/ofdm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "phy/ofdm/ofdm_simd.h"

namespace vran::phy {

namespace {

/// out[k] = { in[k].i * scale, in[k].q * scale } at the requested tier.
/// The scalar loop is the reference schedule: int16 -> float (exact),
/// one multiply per component — exactly what the SIMD kernels execute.
void convert_q12_to_cf(IsaLevel isa, const IqSample* in, Cf* out,
                       std::size_t n, float scale) {
  switch (isa) {
    case IsaLevel::kAvx512:
      simd::q12_to_cf_avx512(in, out, n, scale);
      return;
    case IsaLevel::kAvx2:
      simd::q12_to_cf_avx2(in, out, n, scale);
      return;
    case IsaLevel::kSse41:
      simd::q12_to_cf_sse(in, out, n, scale);
      return;
    case IsaLevel::kScalar:
      break;
  }
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = Cf(static_cast<float>(in[k].i) * scale,
                static_cast<float>(in[k].q) * scale);
  }
}

/// out[k] = quantize_q12(in[k] * unscale) per component.
void convert_cf_to_q12(IsaLevel isa, const Cf* in, IqSample* out,
                       std::size_t n, float unscale) {
  switch (isa) {
    case IsaLevel::kAvx512:
      simd::cf_to_q12_avx512(in, out, n, unscale);
      return;
    case IsaLevel::kAvx2:
      simd::cf_to_q12_avx2(in, out, n, unscale);
      return;
    case IsaLevel::kSse41:
      simd::cf_to_q12_sse(in, out, n, unscale);
      return;
    case IsaLevel::kScalar:
      break;
  }
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = IqSample{simd::quantize_q12(in[k].real() * unscale),
                      simd::quantize_q12(in[k].imag() * unscale)};
  }
}

}  // namespace

OfdmModulator::OfdmModulator(OfdmConfig cfg, IsaLevel isa)
    : cfg_(cfg),
      plan_(&shared_fft_plan(static_cast<std::size_t>(cfg.nfft))),
      isa_(std::min(isa, cpu_features().best())) {
  if (cfg_.used_subcarriers % 2 != 0 || cfg_.used_subcarriers >= cfg_.nfft) {
    throw std::invalid_argument("OfdmModulator: bad subcarrier count");
  }
  if (cfg_.cp_len < 0 || cfg_.cp_len >= cfg_.nfft) {
    throw std::invalid_argument("OfdmModulator: bad CP length");
  }
}

void OfdmModulator::modulate_symbol_into(const IqSample* res,
                                         std::size_t count,
                                         std::span<Cf> grid, Cf* out) const {
  const std::size_t n = static_cast<std::size_t>(cfg_.nfft);
  const std::size_t half =
      static_cast<std::size_t>(cfg_.used_subcarriers / 2);
  // Subcarriers -nsc/2..-1 and +1..+nsc/2 around DC (DC unused): two
  // contiguous runs, each one dispatched Q12->float convert; the bins
  // of REs a partial final symbol lacks are zero.
  //   negative bins n-half..n-1  <- REs 0..half-1
  //   positive bins 1..half      <- REs half..nsc-1
  const std::size_t lo = std::min(count, half);
  const std::size_t hi = count - lo;
  Cf* g = grid.data();
  convert_q12_to_cf(isa_, res, g + (n - half), lo, cfg_.iq_scale);
  std::fill(g + (n - half) + lo, g + n, Cf{});
  if (hi > 0) convert_q12_to_cf(isa_, res + half, g + 1, hi, cfg_.iq_scale);
  std::fill(g + 1 + hi, g + 1 + half, Cf{});

  const std::size_t cp = static_cast<std::size_t>(cfg_.cp_len);
  plan_->inverse(grid, std::span<Cf>(out + cp, n), isa_);
  std::memcpy(out, out + n, cp * sizeof(Cf));
}

std::vector<Cf> OfdmModulator::modulate_symbol(
    std::span<const IqSample> res) const {
  if (res.size() != static_cast<std::size_t>(cfg_.used_subcarriers)) {
    throw std::invalid_argument("modulate_symbol: RE count mismatch");
  }
  return modulate(res);
}

void OfdmModulator::extract_res(const Cf* grid, IqSample* out,
                                std::size_t count) const {
  const std::size_t n = static_cast<std::size_t>(cfg_.nfft);
  const std::size_t half =
      static_cast<std::size_t>(cfg_.used_subcarriers / 2);
  const float unscale = 1.0f / cfg_.iq_scale;
  const std::size_t lo = std::min(half, count);
  const std::size_t hi = count > half ? std::min(half, count - half) : 0;
  if (lo > 0) convert_cf_to_q12(isa_, grid + (n - half), out, lo, unscale);
  if (hi > 0) convert_cf_to_q12(isa_, grid + 1, out + half, hi, unscale);
}

std::vector<IqSample> OfdmModulator::demodulate_symbol(
    std::span<const Cf> time) const {
  if (time.size() != static_cast<std::size_t>(ofdm_symbol_samples(cfg_))) {
    throw std::invalid_argument("demodulate_symbol: sample count mismatch");
  }
  return demodulate(time, static_cast<std::size_t>(cfg_.used_subcarriers));
}

std::vector<Cf> OfdmModulator::modulate(std::span<const IqSample> res) const {
  std::vector<Cf> out;
  modulate_into(res, out);
  return out;
}

void OfdmModulator::modulate_into(std::span<const IqSample> res,
                                  std::vector<Cf>& time) const {
  const std::size_t cap = static_cast<std::size_t>(ofdm_symbol_capacity(cfg_));
  const std::size_t samples =
      static_cast<std::size_t>(ofdm_symbol_samples(cfg_));
  const std::size_t n = static_cast<std::size_t>(cfg_.nfft);
  const std::size_t nsym = (res.size() + cap - 1) / cap;
  // The IFFT's input grid lives past the last symbol, so the buffer's
  // own capacity serves as scratch and the call stays allocation-free
  // once `time` has held this many samples.
  time.resize(nsym * samples + n);
  const std::span<Cf> grid(time.data() + nsym * samples, n);
  std::fill(grid.begin(), grid.end(), Cf{});
  for (std::size_t s = 0; s < nsym; ++s) {
    const std::size_t at = s * cap;
    modulate_symbol_into(res.data() + at, std::min(cap, res.size() - at),
                         grid, time.data() + s * samples);
  }
  time.resize(nsym * samples);
}

std::vector<IqSample> OfdmModulator::demodulate(std::span<const Cf> time,
                                                std::size_t re_count) const {
  std::vector<IqSample> res(re_count);
  std::vector<Cf> scratch(static_cast<std::size_t>(cfg_.nfft));
  demodulate_into(time, res, scratch);
  return res;
}

void OfdmModulator::demodulate_into(std::span<const Cf> time,
                                    std::span<IqSample> out,
                                    std::span<Cf> fft_scratch) const {
  const std::size_t cap = static_cast<std::size_t>(ofdm_symbol_capacity(cfg_));
  const std::size_t samples =
      static_cast<std::size_t>(ofdm_symbol_samples(cfg_));
  const std::size_t n = static_cast<std::size_t>(cfg_.nfft);
  const std::size_t cp = static_cast<std::size_t>(cfg_.cp_len);
  if (time.size() % samples != 0) {
    throw std::invalid_argument("demodulate: partial OFDM symbol");
  }
  if (out.size() > (time.size() / samples) * cap) {
    throw std::invalid_argument("demodulate: fewer REs than requested");
  }
  if (fft_scratch.size() < n) {
    throw std::invalid_argument("demodulate: fft_scratch < nfft");
  }
  const std::span<Cf> grid = fft_scratch.first(n);

  for (std::size_t at = 0, produced = 0; produced < out.size();
       at += samples) {
    // The FFT reads the symbol's body in place, past its cyclic prefix.
    plan_->forward(time.subspan(at + cp, n), grid, isa_);
    // Only the REs that land inside `out` (the final symbol is usually
    // partial).
    const std::size_t take = std::min(cap, out.size() - produced);
    extract_res(grid.data(), out.data() + produced, take);
    produced += take;
  }
}

}  // namespace vran::phy
