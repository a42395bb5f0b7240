// Real-kernel workloads for the figure benches' --hw mode, shaped to
// match the port-model trace generators (sim/kernels.h) parameter for
// parameter: where fig05 models trace_arrange(kExtract, kSse41,
// kCanonical, 6148), wl_arrange(...) runs the actual
// arrange::deinterleave3_i16 on a 6148-triple buffer. measure() brackets
// N repetitions with the calling thread's PMU group, so each figure can
// print a measured IPC / backend-bound / L1D column next to the model's
// prediction — and tools/pmu_validate can report the relative error.
//
// On a host without perf access every measurement comes back
// !reading.valid; callers print the port-model columns alone. All
// factories allocate and touch their buffers up front (construction is
// not measured; measure() also runs one unmeasured warmup call).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/cpu_features.h"
#include "arrange/arrange.h"
#include "phy/crc/crc.h"
#include "obs/pmu.h"
#include "phy/dci/dci.h"
#include "phy/modulation/modulation.h"
#include "phy/ofdm/ofdm.h"
#include "phy/ratematch/rate_match.h"
#include "phy/scramble/scrambler.h"
#include "phy/turbo/turbo_batch.h"
#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::bench::hw {

/// One workload: run() performs one kernel invocation on pre-built
/// buffers. std::function keeps the factories simple; the capture is
/// built once, outside any measurement.
using Workload = std::function<void()>;

/// PMU delta over `reps` runs of `fn` (plus one unmeasured warmup),
/// taken from the calling thread's counter group. `!result.valid` when
/// the PMU is unavailable — callers must check before deriving ratios.
inline obs::PmuReading measure(const Workload& fn, int reps = 32) {
  auto& group = obs::pmu_thread_group();
  if (!group.available()) return {};
  fn();  // warmup: faults, cold caches, lazy init
  const obs::PmuReading t0 = group.read();
  for (int i = 0; i < reps; ++i) fn();
  return group.read().delta_since(t0);
}

/// Deterministic fill helpers (seeded; --hw runs are reproducible).
inline void fill_llr(std::span<std::int16_t> v, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> d(-120, 120);
  for (auto& x : v) x = static_cast<std::int16_t>(d(rng));
}
inline void fill_bits(std::span<std::uint8_t> v, std::uint32_t seed) {
  std::mt19937 rng(seed);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng() & 1u);
}

/// Data arrangement: deinterleave3_i16 over n triples — the paper's
/// hotspot, and the kernel fig15 sweeps across Method x IsaLevel.
inline Workload wl_arrange(arrange::Method method, IsaLevel isa,
                           arrange::Order order, std::size_t n) {
  auto src = std::make_shared<AlignedVector<std::int16_t>>(3 * n);
  auto s = std::make_shared<AlignedVector<std::int16_t>>(n);
  auto p1 = std::make_shared<AlignedVector<std::int16_t>>(n);
  auto p2 = std::make_shared<AlignedVector<std::int16_t>>(n);
  fill_llr(*src, 0xA77u);
  arrange::Options opt;
  opt.method = method;
  opt.isa = isa;
  opt.order = order;
  return [=] {
    arrange::deinterleave3_i16(*src, *s, *p1, *p2, opt);
  };
}

/// Turbo decode of one size-k block: arrangement + `iterations` full MAP
/// iterations (force_full_iterations pins the work; early exits would
/// make the measured cycles depend on the noise draw). Counters cover
/// decode() wholesale — arrangement included — i.e. the pipeline's
/// pmu.stage.arrange plus pmu.stage.turbo_decode.
inline Workload wl_turbo_decode(IsaLevel isa, int k, int iterations,
                                arrange::Method method) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
  fill_bits(bits, 0x7D0u);
  const auto cw = phy::TurboEncoder(k).encode(bits);
  const std::size_t kt = static_cast<std::size_t>(k) + phy::kTurboTail;
  auto triples = std::make_shared<AlignedVector<std::int16_t>>(3 * kt);
  {
    std::vector<std::int16_t> s(kt), q1(kt), q2(kt);
    for (std::size_t i = 0; i < kt; ++i) {
      s[i] = cw.d0[i] ? -40 : 40;
      q1[i] = cw.d1[i] ? -40 : 40;
      q2[i] = cw.d2[i] ? -40 : 40;
    }
    arrange::interleave3_i16(s, q1, q2, *triples);
  }
  phy::TurboDecodeConfig cfg;
  cfg.max_iterations = iterations;
  cfg.arrange_method = method;
  cfg.isa = isa;
  auto dec = std::make_shared<phy::TurboDecoder>(k, cfg);
  auto hard = std::make_shared<std::vector<std::uint8_t>>(
      static_cast<std::size_t>(k));
  return [=] {
    dec->decode(*triples, *hard, /*force_full_iterations=*/true);
  };
}

/// Batched-lane turbo decode of one group: one block per size in `ks`
/// (at most lane_capacity(isa), any mix of K, right-aligned by the
/// decoder), one per 8-state lane group, `iterations` full MAP
/// iterations (forced — no early exit, so cycles are noise-independent).
/// Counters cover decode_arranged() wholesale: batch transpose +
/// recursions + interleaver + hard decisions.
inline Workload wl_turbo_decode_group(IsaLevel isa, std::vector<int> ks,
                                      int iterations) {
  const std::size_t nb = ks.size();
  auto streams =
      std::make_shared<std::vector<AlignedVector<std::int16_t>>>();
  auto inputs = std::make_shared<std::vector<phy::TurboBatchInput>>();
  auto outs = std::make_shared<std::vector<std::vector<std::uint8_t>>>(nb);
  auto out_spans = std::make_shared<std::vector<std::span<std::uint8_t>>>();
  auto results = std::make_shared<std::vector<phy::TurboBatchResult>>(nb);
  auto force = std::make_shared<std::vector<std::uint8_t>>(nb, std::uint8_t{1});
  streams->reserve(3 * nb);
  for (std::size_t b = 0; b < nb; ++b) {
    const int k = ks[b];
    const std::size_t kt = static_cast<std::size_t>(k) + phy::kTurboTail;
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
    fill_bits(bits, 0x7D2u + static_cast<std::uint32_t>(b));
    const auto cw = phy::TurboEncoder(k).encode(bits);
    const std::uint8_t* d[3] = {cw.d0.data(), cw.d1.data(), cw.d2.data()};
    for (int s = 0; s < 3; ++s) {
      auto& v = streams->emplace_back(kt);
      for (std::size_t i = 0; i < kt; ++i) {
        v[i] = d[s][i] ? std::int16_t{-40} : std::int16_t{40};
      }
    }
    (*outs)[b].resize(static_cast<std::size_t>(k));
  }
  for (std::size_t b = 0; b < nb; ++b) {
    inputs->push_back({(*streams)[3 * b], (*streams)[3 * b + 1],
                       (*streams)[3 * b + 2]});
    out_spans->emplace_back((*outs)[b]);
  }
  phy::TurboBatchConfig cfg;
  cfg.isa = isa;
  cfg.max_iterations = iterations;
  auto dec = std::make_shared<phy::TurboBatchDecoder>(
      *std::max_element(ks.begin(), ks.end()), cfg);
  // inputs and out_spans are views into streams and outs: the closure
  // must own those too, or the views dangle once this factory returns.
  return [dec, streams, inputs, outs, out_spans, results, force] {
    dec->decode_arranged(*inputs, *out_spans, *results, *force);
  };
}

/// lane_capacity(isa) same-K blocks in one group. Divide by
/// lane_capacity(isa) for per-block numbers.
inline Workload wl_turbo_decode_batch(IsaLevel isa, int k, int iterations) {
  return wl_turbo_decode_group(
      isa,
      std::vector<int>(static_cast<std::size_t>(
                           phy::TurboBatchDecoder::lane_capacity(isa)),
                       k),
      iterations);
}

/// Turbo encode of one size-k block.
inline Workload wl_turbo_encode(int k) {
  auto bits =
      std::make_shared<std::vector<std::uint8_t>>(static_cast<std::size_t>(k));
  fill_bits(*bits, 0x7E1u);
  auto enc = std::make_shared<phy::TurboEncoder>(k);
  return [=] { enc->encode(*bits); };
}

/// OFDM receive: demodulate `symbols` symbols of an nfft-point grid at
/// the given kernel tier.
inline Workload wl_ofdm_rx(IsaLevel isa, int nfft, int symbols) {
  phy::OfdmConfig cfg;
  cfg.nfft = nfft;
  const std::size_t n_res =
      static_cast<std::size_t>(cfg.used_subcarriers) *
      static_cast<std::size_t>(symbols);
  auto ofdm = std::make_shared<phy::OfdmModulator>(cfg, isa);
  std::vector<phy::IqSample> res(n_res);
  std::mt19937 rng(0x0FD0u);
  for (auto& re : res) {
    re.i = static_cast<std::int16_t>(rng() % 2048);
    re.q = static_cast<std::int16_t>(rng() % 2048);
  }
  auto time = std::make_shared<std::vector<phy::Cf>>(ofdm->modulate(res));
  return [=] { ofdm->demodulate(*time, n_res); };
}

/// OFDM transmit: modulate the same grid at the given kernel tier.
inline Workload wl_ofdm_tx(IsaLevel isa, int nfft, int symbols) {
  phy::OfdmConfig cfg;
  cfg.nfft = nfft;
  const std::size_t n_res =
      static_cast<std::size_t>(cfg.used_subcarriers) *
      static_cast<std::size_t>(symbols);
  auto ofdm = std::make_shared<phy::OfdmModulator>(cfg, isa);
  auto res = std::make_shared<std::vector<phy::IqSample>>(n_res);
  std::mt19937 rng(0x0FD1u);
  for (auto& re : *res) {
    re.i = static_cast<std::int16_t>(rng() % 2048);
    re.q = static_cast<std::int16_t>(rng() % 2048);
  }
  return [=] { ofdm->modulate(*res); };
}

/// Scrambling over n coded bits.
inline Workload wl_scramble(std::size_t n) {
  auto bits = std::make_shared<std::vector<std::uint8_t>>(n);
  fill_bits(*bits, 0x5C2u);
  const std::uint32_t c_init = phy::pusch_c_init(0x1234, 0, 3, 1);
  return [=] { phy::scramble_bits(*bits, c_init); };
}

/// Descrambling over n LLRs at the given kernel tier.
inline Workload wl_descramble(IsaLevel isa, std::size_t n) {
  auto llr = std::make_shared<AlignedVector<std::int16_t>>(n);
  fill_llr(*llr, 0xD5Cu);
  const std::uint32_t c_init = phy::pusch_c_init(0x1234, 0, 3, 1);
  return [=] { phy::descramble_llr(*llr, c_init, isa); };
}

/// 64QAM max-log demap of n symbols at the given kernel tier (the
/// trace_demap twin), at the 18 dB noise level of the ul-bulk workload.
inline Workload wl_demap(IsaLevel isa, std::size_t n) {
  auto sym = std::make_shared<std::vector<phy::IqSample>>(n);
  std::mt19937 rng(0xDE4u);
  std::uniform_int_distribution<int> d(-6000, 6000);
  for (auto& s : *sym) {
    s.i = static_cast<std::int16_t>(d(rng));
    s.q = static_cast<std::int16_t>(d(rng));
  }
  auto llr = std::make_shared<AlignedVector<std::int16_t>>(6 * n);
  const double n0 = 0.0158 * phy::kIqScale * phy::kIqScale;
  return [=] {
    phy::demodulate_llr_into(*sym, phy::Modulation::k64Qam, n0, *llr,
                             phy::kDefaultLlrScale, isa);
  };
}

/// CRC24B over one n-bit code block (one bit per byte), as the
/// desegmentation and turbo early-termination checks run it.
inline Workload wl_crc(std::size_t n) {
  auto bits = std::make_shared<std::vector<std::uint8_t>>(n);
  fill_bits(*bits, 0xC24u);
  return [=] { phy::crc_bits(*bits, phy::CrcType::k24B); };
}

/// Rate matching: one size-k codeword to e bits (rv 0) at the given
/// kernel tier — bit collection into the circular buffer (the inverse
/// sub-block transposes) plus the run-by-run copy (the
/// sim::trace_rate_match twin).
inline Workload wl_rate_match(IsaLevel isa, int k, int e) {
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
  fill_bits(bits, 0x4A7u);
  auto cw = std::make_shared<phy::TurboCodeword>(
      phy::TurboEncoder(k).encode(bits));
  auto matcher = std::make_shared<phy::RateMatcher>(k);
  return [=] { matcher->match(*cw, e, 0, isa); };
}

/// Rate dematch at the given kernel tier: e LLRs combined into a zeroed
/// soft circular buffer run by run, plus the transpose triple
/// extraction the decode path performs with it (the
/// sim::trace_rate_dematch twin).
inline Workload wl_rate_dematch(IsaLevel isa, int k, int e) {
  auto llr = std::make_shared<AlignedVector<std::int16_t>>(
      static_cast<std::size_t>(e));
  fill_llr(*llr, 0xDE3u);
  auto matcher = std::make_shared<phy::RateMatcher>(k);
  auto w = std::make_shared<AlignedVector<std::int16_t>>(
      static_cast<std::size_t>(phy::RateMatcher::buffer_size_for(k)));
  auto triples = std::make_shared<AlignedVector<std::int16_t>>(
      3 * (static_cast<std::size_t>(k) + phy::kTurboTail));
  return [=] {
    std::fill(w->begin(), w->end(), std::int16_t{0});
    matcher->dematch_accumulate(*llr, 0, *w, isa);
    matcher->buffer_to_triples_into(*w, *triples, isa);
  };
}

/// DCI encode + decode round trip (27-bit payload, 288 coded bits — the
/// control-channel workload of figs. 5/6).
inline Workload wl_dci() {
  phy::DciPayload grant;
  grant.rb_start = 2;
  grant.rb_len = 25;
  grant.mcs = 20;
  const std::uint16_t rnti = 0x1234;
  const auto bits = phy::dci_encode(grant, rnti, 288);
  auto llr = std::make_shared<std::vector<std::int16_t>>(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    (*llr)[i] = bits[i] ? 60 : -60;  // the pipeline's DCI sign convention
  }
  return [=] { phy::dci_decode(*llr, rnti); };
}

}  // namespace vran::bench::hw
