#include "phy/channel/channel.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "common/rng.h"
#include "common/saturate.h"
#include "phy/channel/noise_simd.h"

namespace vran::phy {

namespace simd {

void add_noise(Cf* x, std::size_t n, float sigma, std::uint64_t stream_key,
               std::uint64_t first, IsaLevel isa) {
  while (n > 0) {
    const std::uint64_t epoch = first / kNoiseEpochSamples;
    const std::size_t run = static_cast<std::size_t>(std::min<std::uint64_t>(
        n, (epoch + 1) * kNoiseEpochSamples - first));
    const NoiseKey k = noise_key(stream_key, epoch);
    const auto w0 = static_cast<std::uint32_t>(first << 1);
    switch (isa) {
      case IsaLevel::kAvx512:
        add_noise_avx512(x, run, w0, k, sigma);
        break;
      case IsaLevel::kAvx2:
        add_noise_avx2(x, run, w0, k, sigma);
        break;
      case IsaLevel::kSse41:
        add_noise_sse(x, run, w0, k, sigma);
        break;
      case IsaLevel::kScalar:
        for (std::size_t i = 0; i < run; ++i) {
          add_noise_sample(x[i], w0 + 2 * static_cast<std::uint32_t>(i), k,
                           sigma);
        }
        break;
    }
    x += run;
    n -= run;
    first += run;
  }
}

}  // namespace simd

AwgnChannel::AwgnChannel(double snr_db, std::uint64_t seed, IsaLevel isa)
    : snr_db_(snr_db),
      n0_(std::pow(10.0, -snr_db / 10.0)),
      sigma_(static_cast<float>(std::sqrt(n0_ / 2.0))),
      key_(splitmix64(seed_stream(seed))),
      isa_(std::min(isa, cpu_features().best())) {}

void AwgnChannel::apply(std::span<Cf> samples) {
  simd::add_noise(samples.data(), samples.size(), sigma_, key_, next_, isa_);
  next_ += samples.size();
}

void AwgnChannel::apply(std::span<IqSample> symbols) {
  // Q12 noise: the same stream scaled by sigma * 2^12 (exact), added in
  // float chunks and rounded to the nearest integer.
  const float sigma = sigma_ * static_cast<float>(kIqScale);
  std::array<Cf, 256> noise;
  for (std::size_t i = 0; i < symbols.size(); i += noise.size()) {
    const std::size_t n = std::min(noise.size(), symbols.size() - i);
    noise.fill(Cf{});
    simd::add_noise(noise.data(), n, sigma, key_, next_, isa_);
    next_ += n;
    for (std::size_t j = 0; j < n; ++j) {
      auto& s = symbols[i + j];
      s.i = sat_narrow16(int(s.i) + int(std::lrint(noise[j].real())));
      s.q = sat_narrow16(int(s.q) + int(std::lrint(noise[j].imag())));
    }
  }
}

void ErrorStats::add_block(std::span<const std::uint8_t> tx,
                           std::span<const std::uint8_t> rx) {
  if (tx.size() != rx.size()) {
    throw std::invalid_argument("ErrorStats: block size mismatch");
  }
  std::uint64_t errs = 0;
  for (std::size_t i = 0; i < tx.size(); ++i) {
    errs += ((tx[i] ^ rx[i]) & 1u);
  }
  bits += tx.size();
  bit_errors += errs;
  blocks += 1;
  block_errors += (errs != 0);
}

}  // namespace vran::phy
