// SIMD OFDM tier-exactness harness (TESTING.md "Float-kernel
// exactness"). Three oracle families, from weakest to strongest:
//   1. property tests (Parseval, impulse, linearity, round-trip to
//      <= 1 LSB Q12) — catch plain wrong math at any tier;
//   2. <= N-ULP error vs the independent double-precision
//      dft_reference for every tier;
//   3. float-bit identity across tiers and run-to-run, and therefore
//      byte-identical Q12 output — the contract the SIMD kernels are
//      built to (fft.h): any FMA contraction, reassociation, or lane
//      coupling breaks these immediately.
// The whole binary also re-runs under VRAN_FORCE_ISA=<tier> (CTest
// variants) so the default-dispatch paths are pinned per tier too.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "guard_page.h"
#include "phy/ofdm/fft.h"
#include "phy/ofdm/ofdm.h"

namespace vran::phy {
namespace {

std::vector<IsaLevel> tiers() {
  std::vector<IsaLevel> out{IsaLevel::kScalar};
  for (const IsaLevel isa :
       {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa <= cpu_features().best()) out.push_back(isa);
  }
  return out;
}

const std::size_t kSizes[] = {64, 128, 256, 512, 1024, 2048};

std::vector<Cf> random_signal(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> d(-1.0f, 1.0f);
  std::vector<Cf> v(n);
  for (auto& x : v) x = Cf(d(rng), d(rng));
  return v;
}

/// Monotonic integer mapping of float bit patterns: ulp distance is
/// |ordered(a) - ordered(b)|; -0 and +0 coincide.
std::int64_t ordered(float f) {
  std::int32_t i;
  std::memcpy(&i, &f, sizeof(i));
  return i >= 0 ? std::int64_t(i)
                : std::int64_t(std::numeric_limits<std::int32_t>::min()) - i;
}

std::int64_t ulp_diff(float a, float b) {
  return std::llabs(ordered(a) - ordered(b));
}

double rms(const std::vector<Cf>& v) {
  double acc = 0;
  for (const auto& x : v) acc += std::norm(std::complex<double>(x));
  return std::sqrt(acc / double(v.size()));
}

// --- Oracle 2: ULP error vs the independent double-precision DFT ----------

// The radix-2 float FFT accumulates rounding over log2(n) stages; 128
// ULP holds with a wide margin up to n=2048 (measured: < 40). Bins
// whose reference magnitude is tiny relative to the signal RMS carry no
// relative precision, so they get an absolute band instead.
constexpr std::int64_t kMaxUlp = 128;

void expect_close(const std::vector<Cf>& got, const std::vector<Cf>& ref,
                  const char* what, std::size_t n, IsaLevel isa) {
  const double abs_band = 1e-4 * rms(ref);
  for (std::size_t i = 0; i < n; ++i) {
    const bool re_ok =
        ulp_diff(got[i].real(), ref[i].real()) <= kMaxUlp ||
        std::abs(double(got[i].real()) - double(ref[i].real())) <= abs_band;
    const bool im_ok =
        ulp_diff(got[i].imag(), ref[i].imag()) <= kMaxUlp ||
        std::abs(double(got[i].imag()) - double(ref[i].imag())) <= abs_band;
    ASSERT_TRUE(re_ok && im_ok)
        << what << " n=" << n << " isa=" << isa_name(isa) << " bin " << i
        << ": got (" << got[i].real() << "," << got[i].imag() << ") ref ("
        << ref[i].real() << "," << ref[i].imag() << ")";
  }
}

TEST(FftUlp, ForwardWithinBandVsReferenceEveryTier) {
  for (const std::size_t n : kSizes) {
    const auto input = random_signal(n, 0x0FD30000u + std::uint32_t(n));
    const auto ref = dft_reference(input, /*inverse=*/false);
    const FftPlan plan(n);
    for (const IsaLevel isa : tiers()) {
      auto data = input;
      plan.forward(data, isa);
      expect_close(data, ref, "forward", n, isa);
    }
  }
}

TEST(FftUlp, InverseWithinBandVsReferenceEveryTier) {
  for (const std::size_t n : kSizes) {
    const auto input = random_signal(n, 0x0FD40000u + std::uint32_t(n));
    const auto ref = dft_reference(input, /*inverse=*/true);
    const FftPlan plan(n);
    for (const IsaLevel isa : tiers()) {
      auto data = input;
      plan.inverse(data, isa);
      expect_close(data, ref, "inverse", n, isa);
    }
  }
}

// --- Oracle 3: cross-tier float-bit identity -------------------------------

TEST(FftExactness, AllTiersBitIdenticalToScalar) {
  // Includes sizes below each tier's native minimum (the fall-back
  // path) alongside the full sweep.
  for (const std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{8},
                              std::size_t{16}, std::size_t{64},
                              std::size_t{512}, std::size_t{2048}}) {
    const auto input = random_signal(n, 0x0FD50000u + std::uint32_t(n));
    const FftPlan plan(n);
    auto fwd_ref = input;
    plan.forward(fwd_ref, IsaLevel::kScalar);
    auto inv_ref = input;
    plan.inverse(inv_ref, IsaLevel::kScalar);
    for (const IsaLevel isa : tiers()) {
      auto fwd = input;
      plan.forward(fwd, isa);
      ASSERT_EQ(0, std::memcmp(fwd.data(), fwd_ref.data(), n * sizeof(Cf)))
          << "forward n=" << n << " isa=" << isa_name(isa);
      auto inv = input;
      plan.inverse(inv, isa);
      ASSERT_EQ(0, std::memcmp(inv.data(), inv_ref.data(), n * sizeof(Cf)))
          << "inverse n=" << n << " isa=" << isa_name(isa);
    }
  }
}

/// The radix-2 schedule fft.h pins, written out independently of the
/// library: an index bit-reversal, then every stage with twiddles
/// computed as the plan does (double cos/sin rounded to float, conjugated
/// for the inverse), two muls and one add or subtract per component, and
/// the inverse's 1/N as a final multiply of each sample.
std::vector<Cf> schedule_reference(std::span<const Cf> in, bool inverse) {
  const std::size_t n = in.size();
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  std::vector<Cf> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
    }
    d[i] = in[r];
  }
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t step = n / (2 * half);
    for (std::size_t start = 0; start < n; start += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        const double ang =
            -2.0 * std::numbers::pi * double(k * step) / double(n);
        const float wr = static_cast<float>(std::cos(ang));
        const float w_im = static_cast<float>(std::sin(ang));
        const float wi = inverse ? -w_im : w_im;
        const Cf x = d[start + k + half];
        const float vr = x.real() * wr - x.imag() * wi;
        const float vi = x.real() * wi + x.imag() * wr;
        const Cf u = d[start + k];
        d[start + k] = Cf(u.real() + vr, u.imag() + vi);
        d[start + k + half] = Cf(u.real() - vr, u.imag() - vi);
      }
    }
  }
  if (inverse) {
    const float s = 1.0f / static_cast<float>(n);
    for (auto& v : d) v = Cf(v.real() * s, v.imag() * s);
  }
  return d;
}

/// Inputs that stress the sign and subnormal paths: a mix of random
/// values, +-0, +-subnormals, and a transmit-style grid whose only
/// non-zero bins are two runs around DC.
std::vector<std::vector<Cf>> exactness_inputs(std::size_t n) {
  std::vector<std::vector<Cf>> out;
  out.push_back(random_signal(n, 0x0FE00000u + std::uint32_t(n)));
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            1.5e-39f,
                            -2.5e-39f,
                            std::numeric_limits<float>::min(),
                            0.75f};
  std::mt19937 rng(0x0FE10000u + std::uint32_t(n));
  std::vector<Cf> special(n);
  for (auto& v : special) v = Cf(specials[rng() % 8], specials[rng() % 8]);
  out.push_back(special);
  std::vector<Cf> grid(n, Cf{0.0f, 0.0f});
  const auto noise = random_signal(n, 0x0FE20000u + std::uint32_t(n));
  for (std::size_t k = 1; k <= n / 4; ++k) {
    grid[k] = noise[k];
    grid[n - k] = noise[n - k];
  }
  grid[n / 2] = Cf(-0.0f, -0.0f);
  out.push_back(grid);
  return out;
}

TEST(FftExactness, OutOfPlaceMatchesScheduleAtEveryTierAndSize) {
  // n = 2..4096 covers the sizes below every tier's minimum block (the
  // fall-back path) and several AVX-512 block counts. The input ends at
  // a guard page and canaries sit on both sides of the output, so a
  // kernel that reads past its input or writes outside its output fails.
  constexpr std::size_t kCanary = 16;
  const Cf canary(std::numeric_limits<float>::quiet_NaN(), -1234.5f);
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    const FftPlan plan(n);
    test::GuardedBuffer<Cf> in(n);
    for (const auto& input : exactness_inputs(n)) {
      std::copy(input.begin(), input.end(), in.span().begin());
      for (const bool inverse : {false, true}) {
        const auto want = schedule_reference(input, inverse);
        for (const IsaLevel isa : tiers()) {
          std::vector<Cf> buf(n + 2 * kCanary, canary);
          const std::span<Cf> out(buf.data() + kCanary, n);
          if (inverse) {
            plan.inverse(in.span(), out, isa);
          } else {
            plan.forward(in.span(), out, isa);
          }
          ASSERT_EQ(0, std::memcmp(out.data(), want.data(), n * sizeof(Cf)))
              << (inverse ? "inverse" : "forward") << " n=" << n
              << " isa=" << isa_name(isa);
          for (std::size_t i = 0; i < kCanary; ++i) {
            ASSERT_EQ(0, std::memcmp(&buf[i], &canary, sizeof(Cf)))
                << "write before output n=" << n << " isa=" << isa_name(isa);
            ASSERT_EQ(0, std::memcmp(&buf[kCanary + n + i], &canary,
                                     sizeof(Cf)))
                << "write past output n=" << n << " isa=" << isa_name(isa);
          }
        }
      }
    }
  }
}

TEST(FftExactness, InPlaceWrapperMatchesOutOfPlace) {
  const std::size_t n = 512;
  const auto input = random_signal(n, 0x0FE3u);
  const FftPlan plan(n);
  for (const IsaLevel isa : tiers()) {
    std::vector<Cf> want(n);
    plan.inverse(input, want, isa);
    auto data = input;
    plan.inverse(data, isa);
    ASSERT_EQ(0, std::memcmp(data.data(), want.data(), n * sizeof(Cf)))
        << "isa=" << isa_name(isa);
  }
  std::vector<Cf> data(n);
  EXPECT_THROW(plan.forward(std::span<const Cf>(data).subspan(1, n - 1),
                            std::span<Cf>(data).first(n - 1), IsaLevel::kScalar),
               std::invalid_argument);
  EXPECT_THROW(plan.forward(data, data, IsaLevel::kScalar),
               std::invalid_argument);
}

TEST(FftExactness, RunToRunBitStablePerTier) {
  const std::size_t n = 1024;
  const auto input = random_signal(n, 0x0FD6u);
  const FftPlan plan(n);
  for (const IsaLevel isa : tiers()) {
    auto a = input;
    plan.forward(a, isa);
    for (int run = 0; run < 3; ++run) {
      auto b = input;
      plan.forward(b, isa);
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), n * sizeof(Cf)))
          << "isa=" << isa_name(isa) << " run " << run;
    }
  }
}

TEST(FftExactness, ExplicitTierIsClampedNeverSigill) {
  // Asking for a tier above the CPU's capability must clamp, not crash,
  // and still produce the (bit-identical) result.
  const std::size_t n = 256;
  const auto input = random_signal(n, 0x0FD7u);
  const FftPlan plan(n);
  auto ref = input;
  plan.forward(ref, IsaLevel::kScalar);
  auto data = input;
  plan.forward(data, IsaLevel::kAvx512);
  EXPECT_EQ(0, std::memcmp(data.data(), ref.data(), n * sizeof(Cf)));
}

// --- Oracle 1: properties ---------------------------------------------------

TEST(FftProperty, ParsevalHoldsEveryTier) {
  for (const std::size_t n : kSizes) {
    const auto input = random_signal(n, 0x0FD80000u + std::uint32_t(n));
    double time_e = 0;
    for (const auto& x : input) time_e += std::norm(std::complex<double>(x));
    const FftPlan plan(n);
    for (const IsaLevel isa : tiers()) {
      auto data = input;
      plan.forward(data, isa);
      double freq_e = 0;
      for (const auto& x : data) freq_e += std::norm(std::complex<double>(x));
      freq_e /= double(n);
      EXPECT_NEAR(freq_e, time_e, 1e-4 * time_e)
          << "n=" << n << " isa=" << isa_name(isa);
    }
  }
}

TEST(FftProperty, ImpulseGivesFlatSpectrumEveryTier) {
  const std::size_t n = 512;
  for (const std::size_t pos : {std::size_t{0}, std::size_t{1},
                                std::size_t{257}}) {
    std::vector<Cf> impulse(n, Cf{0.0f, 0.0f});
    impulse[pos] = Cf{1.0f, 0.0f};
    const FftPlan plan(n);
    for (const IsaLevel isa : tiers()) {
      auto data = impulse;
      plan.forward(data, isa);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(std::abs(std::complex<double>(data[k])), 1.0, 1e-5)
            << "pos=" << pos << " bin=" << k << " isa=" << isa_name(isa);
      }
    }
  }
}

TEST(FftProperty, LinearityHoldsEveryTier) {
  const std::size_t n = 1024;
  const auto x = random_signal(n, 0x0FD9u);
  const auto y = random_signal(n, 0x0FDAu);
  const Cf a{1.7f, -0.3f}, b{-0.9f, 2.1f};
  const FftPlan plan(n);
  for (const IsaLevel isa : tiers()) {
    std::vector<Cf> mix(n);
    for (std::size_t i = 0; i < n; ++i) mix[i] = a * x[i] + b * y[i];
    plan.forward(mix, isa);
    auto fx = x;
    plan.forward(fx, isa);
    auto fy = y;
    plan.forward(fy, isa);
    for (std::size_t i = 0; i < n; ++i) {
      const auto want = std::complex<double>(a) * std::complex<double>(fx[i]) +
                        std::complex<double>(b) * std::complex<double>(fy[i]);
      EXPECT_NEAR(double(mix[i].real()), want.real(), 2e-3)
          << "bin " << i << " isa=" << isa_name(isa);
      EXPECT_NEAR(double(mix[i].imag()), want.imag(), 2e-3)
          << "bin " << i << " isa=" << isa_name(isa);
    }
  }
}

// --- OFDM chain: round-trip, partial symbols, cross-tier bytes -------------

// Geometries chosen to stress the convert-kernel tails and the
// subcarrier split around DC: odd halves (19, 75, 151, 601), the
// minimum nsc=2, near-full occupancy, and the LTE default.
struct Geometry {
  int nfft, nsc, cp;
};
const Geometry kGeometries[] = {
    {64, 38, 8},    {128, 2, 9},    {256, 150, 18},  {512, 300, 36},
    {512, 302, 40}, {1024, 602, 72}, {2048, 1202, 144}, {64, 62, 4},
};

std::vector<IqSample> random_res(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(-2048, 2047);
  std::vector<IqSample> v(n);
  for (auto& re : v) {
    re.i = static_cast<std::int16_t>(d(rng));
    re.q = static_cast<std::int16_t>(d(rng));
  }
  return v;
}

TEST(OfdmSimd, RoundTripWithinOneLsbEveryTierEveryGeometry) {
  for (const auto& g : kGeometries) {
    OfdmConfig cfg;
    cfg.nfft = g.nfft;
    cfg.used_subcarriers = g.nsc;
    cfg.cp_len = g.cp;
    const auto res = random_res(static_cast<std::size_t>(g.nsc),
                                0x0FDB0000u + std::uint32_t(g.nfft));
    for (const IsaLevel isa : tiers()) {
      const OfdmModulator ofdm(cfg, isa);
      const auto time = ofdm.modulate_symbol(res);
      const auto back = ofdm.demodulate_symbol(time);
      ASSERT_EQ(back.size(), res.size());
      for (std::size_t i = 0; i < res.size(); ++i) {
        EXPECT_LE(std::abs(int(back[i].i) - int(res[i].i)), 1)
            << "nfft=" << g.nfft << " nsc=" << g.nsc << " re " << i
            << " isa=" << isa_name(isa);
        EXPECT_LE(std::abs(int(back[i].q) - int(res[i].q)), 1)
            << "nfft=" << g.nfft << " nsc=" << g.nsc << " re " << i
            << " isa=" << isa_name(isa);
      }
    }
  }
}

TEST(OfdmSimd, CrossTierByteIdenticalEgress) {
  for (const auto& g : kGeometries) {
    OfdmConfig cfg;
    cfg.nfft = g.nfft;
    cfg.used_subcarriers = g.nsc;
    cfg.cp_len = g.cp;
    const auto res = random_res(static_cast<std::size_t>(g.nsc),
                                0x0FDC0000u + std::uint32_t(g.nfft));
    const OfdmModulator scalar(cfg, IsaLevel::kScalar);
    const auto time_ref = scalar.modulate_symbol(res);
    const auto back_ref = scalar.demodulate_symbol(time_ref);
    // Free-form time-domain input (not a quantizer-friendly round
    // trip): demodulated Q12 bytes must STILL agree across tiers,
    // which only holds because the grids are float-bit-identical.
    std::mt19937 rng(0x0FDD0000u + std::uint32_t(g.nfft));
    std::uniform_real_distribution<float> d(-0.6f, 0.6f);
    std::vector<Cf> noise(time_ref.size());
    for (auto& x : noise) x = Cf(d(rng), d(rng));
    const auto noisy_ref = scalar.demodulate_symbol(noise);
    for (const IsaLevel isa : tiers()) {
      const OfdmModulator ofdm(cfg, isa);
      const auto time = ofdm.modulate_symbol(res);
      ASSERT_EQ(0, std::memcmp(time.data(), time_ref.data(),
                               time.size() * sizeof(Cf)))
          << "modulate nfft=" << g.nfft << " isa=" << isa_name(isa);
      const auto back = ofdm.demodulate_symbol(time);
      ASSERT_EQ(0, std::memcmp(back.data(), back_ref.data(),
                               back.size() * sizeof(IqSample)))
          << "demodulate nfft=" << g.nfft << " isa=" << isa_name(isa);
      const auto noisy = ofdm.demodulate_symbol(noise);
      ASSERT_EQ(0, std::memcmp(noisy.data(), noisy_ref.data(),
                               noisy.size() * sizeof(IqSample)))
          << "noisy demodulate nfft=" << g.nfft << " isa=" << isa_name(isa);
    }
  }
}

TEST(OfdmSimd, DemodulateIntoMatchesDemodulatePartialFinalSymbol) {
  OfdmConfig cfg;  // LTE default geometry
  const std::size_t cap = static_cast<std::size_t>(cfg.used_subcarriers);
  const std::size_t n_res = 3 * cap - 7;  // partial final symbol
  const auto res = random_res(3 * cap, 0x0FDEu);
  for (const IsaLevel isa : tiers()) {
    const OfdmModulator ofdm(cfg, isa);
    const auto time = ofdm.modulate(res);
    const auto want = ofdm.demodulate(time, n_res);
    std::vector<IqSample> got(n_res);
    std::vector<Cf> scratch(static_cast<std::size_t>(cfg.nfft));
    ofdm.demodulate_into(time, got, scratch);
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                             n_res * sizeof(IqSample)))
        << "isa=" << isa_name(isa);
  }
}

TEST(OfdmSimd, DemodulateIntoReadsNoFurtherThanTheLastSymbol) {
  // The FFT reads each symbol in place after its cyclic prefix; the last
  // symbol ends at a guard page.
  OfdmConfig cfg;
  const std::size_t cap = static_cast<std::size_t>(cfg.used_subcarriers);
  const std::size_t samples =
      static_cast<std::size_t>(ofdm_symbol_samples(cfg));
  const auto res = random_res(12 * cap, 0x0FE4u);
  for (const IsaLevel isa : tiers()) {
    const OfdmModulator ofdm(cfg, isa);
    const auto time = ofdm.modulate(res);
    ASSERT_EQ(time.size(), 12 * samples);
    test::GuardedBuffer<Cf> guarded(time.size());
    std::copy(time.begin(), time.end(), guarded.span().begin());
    for (const std::size_t n_res : {12 * cap, 12 * cap - 5, 11 * cap + 1}) {
      const auto want = ofdm.demodulate(time, n_res);
      std::vector<IqSample> got(n_res);
      std::vector<Cf> scratch(static_cast<std::size_t>(cfg.nfft));
      ofdm.demodulate_into(guarded.span(), got, scratch);
      ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                               n_res * sizeof(IqSample)))
          << "isa=" << isa_name(isa) << " res " << n_res;
    }
  }
}

TEST(OfdmSimd, ModulateIntoReusedBufferMatchesModulate) {
  // One buffer across growing and shrinking symbol counts, with partial
  // final symbols; each result must equal modulate() and modulate() of
  // the REs zero-padded to whole symbols.
  OfdmConfig cfg;
  const std::size_t cap = static_cast<std::size_t>(cfg.used_subcarriers);
  const auto res = random_res(12 * cap, 0x0FE5u);
  const std::size_t counts[] = {3 * cap,      12 * cap - 7, cap, 1,
                                cap / 2 + 3,  0,            5 * cap + 3,
                                12 * cap,     2 * cap - 1};
  for (const IsaLevel isa : tiers()) {
    const OfdmModulator ofdm(cfg, isa);
    std::vector<Cf> buf;
    for (const std::size_t count : counts) {
      const std::span<const IqSample> part(res.data(), count);
      ofdm.modulate_into(part, buf);
      const auto want = ofdm.modulate(part);
      ASSERT_EQ(buf.size(), want.size());
      ASSERT_EQ(0, std::memcmp(buf.data(), want.data(),
                               want.size() * sizeof(Cf)))
          << "isa=" << isa_name(isa) << " res " << count;
      std::vector<IqSample> padded(part.begin(), part.end());
      padded.resize((count + cap - 1) / cap * cap, IqSample{});
      const auto want_padded = ofdm.modulate(padded);
      ASSERT_EQ(0, std::memcmp(buf.data(), want_padded.data(),
                               want.size() * sizeof(Cf)))
          << "padded isa=" << isa_name(isa) << " res " << count;
    }
  }
}

// --- Satellite: one-shot helper plan cache is thread-safe ------------------

// TSan regression for the fft_forward/fft_inverse process-wide plan
// cache: many threads, mixed sizes, first-touch all at once. Run under
// `ctest -L sanitizer` with TSan; functional (results correct) in
// plain builds.
TEST(FftPlanCache, OneShotHelpersThreadSafeAcrossSizes) {
  const std::size_t sizes[] = {64, 128, 256, 512};
  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int it = 0; it < kIters; ++it) {
        const std::size_t n = sizes[(w + it) % 4];
        auto data = random_signal(n, 0x0FDF0000u + std::uint32_t(n));
        const auto original = data;
        fft_forward(data);
        fft_inverse(data);
        // Round trip through the shared cache must return the input
        // (within float rounding).
        for (std::size_t i = 0; i < n; ++i) {
          if (std::abs(data[i].real() - original[i].real()) > 1e-4f ||
              std::abs(data[i].imag() - original[i].imag()) > 1e-4f) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(0, failures.load());
}

}  // namespace
}  // namespace vran::phy
