// google-benchmark micro-suite over the hot kernels: data arrangement
// (every method x ISA x order), stride-2 splits, constituent MAP passes,
// the batched-lane decoder, the full-width element kernels, the AWGN
// channel's noise kernel and the OFDM FFT. Complements the figure harnesses with
// statistically-managed per-kernel numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "arrange/arrange.h"
#include "bench/hw_kernels.h"
#include "common/aligned.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "phy/ofdm/fft.h"
#include "phy/turbo/turbo_batch.h"
#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_encoder.h"

using namespace vran;

namespace {

AlignedVector<std::int16_t> random_i16(std::size_t n, std::uint64_t seed) {
  AlignedVector<std::int16_t> v(n);
  Xoshiro256 rng(seed);
  for (auto& x : v) x = static_cast<std::int16_t>(rng.next());
  return v;
}

void BM_Deinterleave3(benchmark::State& state, arrange::Method method,
                      IsaLevel isa, arrange::Order order) {
  if (method != arrange::Method::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto src = random_i16(3 * n, 1);
  AlignedVector<std::int16_t> s(n), p1(n), p2(n);
  const arrange::Options opt{method, isa, order};
  for (auto _ : state) {
    arrange::deinterleave3_i16(src, s, p1, p2, opt);
    benchmark::DoNotOptimize(s.data());
    benchmark::DoNotOptimize(p1.data());
    benchmark::DoNotOptimize(p2.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(6 * n));
}

void BM_Deinterleave2(benchmark::State& state, arrange::Method method,
                      IsaLevel isa) {
  if (method != arrange::Method::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto src = random_i16(2 * n, 2);
  AlignedVector<std::int16_t> a(n), b(n);
  for (auto _ : state) {
    arrange::deinterleave2_i16(src, a, b, method, isa);
    benchmark::DoNotOptimize(a.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * n));
}

void BM_MapDecode(benchmark::State& state, IsaLevel isa) {
  if (isa != IsaLevel::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const int k = static_cast<int>(state.range(0));
  const auto sys = random_i16(static_cast<std::size_t>(k), 3);
  const auto par = random_i16(static_cast<std::size_t>(k), 4);
  const auto apr = random_i16(static_cast<std::size_t>(k), 5);
  AlignedVector<std::int16_t> ext(static_cast<std::size_t>(k));
  AlignedVector<std::int16_t> ws(static_cast<std::size_t>(k) * 32 + 64);
  AlignedVector<std::int16_t> gs(static_cast<std::size_t>(k) * 3);
  const std::int16_t st[3] = {10, -10, 5};
  const std::int16_t pt[3] = {-10, 10, -5};
  for (auto _ : state) {
    if (isa == IsaLevel::kScalar) {
      phy::turbo_internal::map_decode_scalar(sys, par, apr, st, pt, ext, {},
                                             ws.data(), gs.data());
    } else {
      phy::turbo_internal::map_decode_simd(isa, sys, par, apr, st, pt, ext,
                                           {}, ws.data(), gs.data());
    }
    benchmark::DoNotOptimize(ext.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

// Full batched decode_arranged() of lane_capacity(isa) blocks, 4 forced
// iterations (the fig09 / pmu_validate workload); items are decoded
// information bits, blocks x K per call.
void BM_TurboBatchDecode(benchmark::State& state, IsaLevel isa) {
  if (isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const int k = static_cast<int>(state.range(0));
  const auto decode = bench::hw::wl_turbo_decode_batch(isa, k, 4);
  for (auto _ : state) {
    decode();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      phy::TurboBatchDecoder::lane_capacity(isa) * k);
}

// One mixed-K set of four blocks, K {5056, 3520, 2016, 1024}, decoded
// in K-descending groups of lane_capacity(isa) as the decode scheduler
// packs them, range(0) forced iterations; items are decoded information
// bits.
void BM_TurboBatchDecodeMixed(benchmark::State& state, IsaLevel isa) {
  if (isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const int iterations = static_cast<int>(state.range(0));
  const std::vector<int> ks = {5056, 3520, 2016, 1024};
  const auto cap =
      static_cast<std::size_t>(phy::TurboBatchDecoder::lane_capacity(isa));
  std::vector<bench::hw::Workload> groups;
  for (std::size_t g = 0; g < ks.size(); g += cap) {
    groups.push_back(bench::hw::wl_turbo_decode_group(
        isa,
        std::vector<int>(ks.begin() + static_cast<std::ptrdiff_t>(g),
                         ks.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(g + cap, ks.size()))),
        iterations));
  }
  for (auto _ : state) {
    for (const auto& decode : groups) decode();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (5056 + 3520 + 2016 + 1024));
}

void BM_VecSatAdd(benchmark::State& state, IsaLevel isa) {
  if (isa != IsaLevel::kScalar && isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = random_i16(n, 6);
  const auto b = random_i16(n, 7);
  AlignedVector<std::int16_t> out(n);
  for (auto _ : state) {
    phy::turbo_internal::vec_sat_add(isa, a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(6 * n));
}

// AWGN channel noise onto range(0) time-domain samples at one tier
// (6576 = one ul-bulk UE subframe, 12 OFDM symbols of 548 samples);
// items are complex samples.
void BM_AwgnChannel(benchmark::State& state, IsaLevel isa) {
  if (isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto add_noise = bench::hw::wl_channel(isa, n);
  for (auto _ : state) {
    add_noise();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// One range(0)-point out-of-place FFT at one tier, the transform OFDM rx
// (forward) and tx (inverse) run per symbol; items are complex samples.
void BM_Fft(benchmark::State& state, IsaLevel isa, bool inverse) {
  if (isa > best_isa()) {
    state.SkipWithError("ISA unavailable");
    return;
  }
  const auto n = static_cast<std::size_t>(state.range(0));
  const phy::FftPlan& plan = phy::shared_fft_plan(n);
  std::vector<phy::Cf> in(n), out(n);
  Xoshiro256 rng(29);
  for (auto& x : in) {
    x = phy::Cf(static_cast<float>(rng.uniform() - 0.5),
                static_cast<float>(rng.uniform() - 0.5));
  }
  for (auto _ : state) {
    if (inverse) {
      plan.inverse(in, out, isa);
    } else {
      plan.forward(in, out, isa);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
void BM_FftForward(benchmark::State& state, IsaLevel isa) {
  BM_Fft(state, isa, false);
}
void BM_FftInverse(benchmark::State& state, IsaLevel isa) {
  BM_Fft(state, isa, true);
}

void BM_TurboEncode(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
  Xoshiro256 rng(8);
  for (auto& x : bits) x = static_cast<std::uint8_t>(rng.next() & 1);
  const phy::TurboEncoder enc(k);
  for (auto _ : state) {
    auto cw = enc.encode(bits);
    benchmark::DoNotOptimize(cw.d1.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}

}  // namespace

#define ARRANGE_BENCH(method, isa, order)                                    \
  BENCHMARK_CAPTURE(BM_Deinterleave3, method##_##isa##_##order,              \
                    arrange::Method::k##method, IsaLevel::k##isa,            \
                    arrange::Order::k##order)                                \
      ->Arg(6148)                                                            \
      ->Arg(49184)

ARRANGE_BENCH(Scalar, Scalar, Canonical);
ARRANGE_BENCH(Extract, Sse41, Canonical);
ARRANGE_BENCH(Extract, Avx2, Canonical);
ARRANGE_BENCH(Extract, Avx512, Canonical);
ARRANGE_BENCH(Apcm, Sse41, Batched);
ARRANGE_BENCH(Apcm, Sse41, Canonical);
ARRANGE_BENCH(Apcm, Avx2, Batched);
ARRANGE_BENCH(Apcm, Avx2, Canonical);
ARRANGE_BENCH(Apcm, Avx512, Batched);
ARRANGE_BENCH(Apcm, Avx512, Canonical);

BENCHMARK_CAPTURE(BM_Deinterleave2, extract_sse, arrange::Method::kExtract,
                  IsaLevel::kSse41)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Deinterleave2, apcm_sse, arrange::Method::kApcm,
                  IsaLevel::kSse41)
    ->Arg(32768);
BENCHMARK_CAPTURE(BM_Deinterleave2, apcm_avx512, arrange::Method::kApcm,
                  IsaLevel::kAvx512)
    ->Arg(32768);

BENCHMARK_CAPTURE(BM_MapDecode, scalar, IsaLevel::kScalar)->Arg(6144);
BENCHMARK_CAPTURE(BM_MapDecode, sse128, IsaLevel::kSse41)->Arg(6144);
BENCHMARK_CAPTURE(BM_MapDecode, avx256, IsaLevel::kAvx2)->Arg(6144);
BENCHMARK_CAPTURE(BM_MapDecode, avx512, IsaLevel::kAvx512)->Arg(6144);

BENCHMARK_CAPTURE(BM_TurboBatchDecode, sse128, IsaLevel::kSse41)
    ->Arg(4160)->Arg(6144);
BENCHMARK_CAPTURE(BM_TurboBatchDecode, avx256, IsaLevel::kAvx2)
    ->Arg(4160)->Arg(6144);
BENCHMARK_CAPTURE(BM_TurboBatchDecode, avx512, IsaLevel::kAvx512)
    ->Arg(4160)->Arg(6144);

BENCHMARK_CAPTURE(BM_TurboBatchDecodeMixed, avx256, IsaLevel::kAvx2)
    ->Arg(1)
    ->Arg(6);
BENCHMARK_CAPTURE(BM_TurboBatchDecodeMixed, avx512, IsaLevel::kAvx512)
    ->Arg(1)
    ->Arg(6);

BENCHMARK_CAPTURE(BM_VecSatAdd, sse128, IsaLevel::kSse41)->Arg(65536);
BENCHMARK_CAPTURE(BM_VecSatAdd, avx512, IsaLevel::kAvx512)->Arg(65536);

BENCHMARK_CAPTURE(BM_AwgnChannel, scalar, IsaLevel::kScalar)->Arg(6576);
BENCHMARK_CAPTURE(BM_AwgnChannel, sse128, IsaLevel::kSse41)->Arg(6576);
BENCHMARK_CAPTURE(BM_AwgnChannel, avx256, IsaLevel::kAvx2)->Arg(6576);
BENCHMARK_CAPTURE(BM_AwgnChannel, avx512, IsaLevel::kAvx512)->Arg(6576);

BENCHMARK_CAPTURE(BM_FftForward, scalar, IsaLevel::kScalar)->Arg(512);
BENCHMARK_CAPTURE(BM_FftForward, sse128, IsaLevel::kSse41)->Arg(512);
BENCHMARK_CAPTURE(BM_FftForward, avx256, IsaLevel::kAvx2)->Arg(512);
BENCHMARK_CAPTURE(BM_FftForward, avx512, IsaLevel::kAvx512)->Arg(512);
BENCHMARK_CAPTURE(BM_FftInverse, scalar, IsaLevel::kScalar)->Arg(512);
BENCHMARK_CAPTURE(BM_FftInverse, sse128, IsaLevel::kSse41)->Arg(512);
BENCHMARK_CAPTURE(BM_FftInverse, avx256, IsaLevel::kAvx2)->Arg(512);
BENCHMARK_CAPTURE(BM_FftInverse, avx512, IsaLevel::kAvx512)->Arg(512);

BENCHMARK(BM_TurboEncode)->Arg(1024)->Arg(6144);

BENCHMARK_MAIN();
