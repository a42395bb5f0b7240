// Figure 9: SIMD submodule processing time under SSE128 / AVX256 /
// AVX512 — measured on the real kernels, original vs APCM arrangement,
// plus the OFDM and receive-front (demap, descramble, CRC) kernels.
//
// Paper shape: the calculation submodules (gamma/alpha/beta/ext) shrink
// as registers widen, while the original data arrangement does NOT
// (it grows), so its share of the module balloons: 13% -> 17% -> 19.5%
// original vs 4.7% -> 3.4% -> 1.8% under APCM.
#include <cstdio>

#include "arrange/arrange.h"
#include "bench/bench_util.h"
#include "bench/hw_kernels.h"
#include "common/aligned.h"
#include "common/rng.h"
#include "common/timer.h"
#include "phy/ofdm/ofdm.h"
#include "phy/turbo/turbo_batch.h"
#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_encoder.h"

using namespace vran;
using namespace vran::phy;

namespace {

struct Workload {
  AlignedVector<std::int16_t> llr;
  int k;
};

Workload make_workload(int k) {
  Workload w;
  w.k = k;
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
  Xoshiro256 rng(5);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  const auto cw = turbo_encode(bits);
  w.llr.resize(3 * (static_cast<std::size_t>(k) + 4));
  for (std::size_t t = 0; t < cw.d0.size(); ++t) {
    const auto noisy = [&](std::uint8_t b) {
      return static_cast<std::int16_t>((b ? 60 : -60) +
                                       int(rng.bounded(21)) - 10);
    };
    w.llr[3 * t] = noisy(cw.d0[t]);
    w.llr[3 * t + 1] = noisy(cw.d1[t]);
    w.llr[3 * t + 2] = noisy(cw.d2[t]);
  }
  return w;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 9 — Turbo-decode submodule time vs register width (measured)");

  const int k = 6144;
  const auto w = make_workload(k);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k));

  std::printf("%-10s %-9s %12s %12s %10s\n", "isa", "arrange", "arrange_us",
              "decode_us", "arr.share");
  bench::print_rule();
  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) {
      std::printf("%-10s (unavailable on this CPU)\n", isa_name(isa));
      continue;
    }
    for (auto method : {arrange::Method::kExtract, arrange::Method::kApcm}) {
      TurboDecodeConfig cfg;
      cfg.isa = isa;
      cfg.arrange_method = method;
      cfg.max_iterations = 4;
      cfg.early_stop = false;  // fixed work for a fair width comparison
      TurboDecoder dec(k, cfg);

      double arrange_s = 0, compute_s = 0;
      const int reps = 40;
      for (int r = 0; r < reps; ++r) {
        const auto res = dec.decode(w.llr, out);
        arrange_s += res.arrange_seconds;
        compute_s += res.compute_seconds;
      }
      arrange_s /= reps;
      compute_s /= reps;
      std::printf("%-10s %-9s %12.2f %12.2f %9.1f%%\n", isa_name(isa),
                  arrange::method_name(method), arrange_s * 1e6,
                  compute_s * 1e6,
                  100 * arrange_s / (arrange_s + compute_s));
    }
  }
  bench::print_rule();
  std::printf(
      "paper shape: calculation time halves per width step; original\n"
      "arrangement share grows 13%% -> 17%% -> 19.5%%, APCM share shrinks\n"
      "4.7%% -> 3.4%% -> 1.8%%\n");

  // Batched-lane decoding: B same-K blocks, one whole trellis per 8-state
  // lane group, exact boundaries at every width. Same fixed iteration
  // count as above (force_full) so per-block time is directly comparable
  // with the windowed decode_us column.
  std::printf(
      "\nBatched-lane decoding (one code block per lane group, 4 fixed "
      "iterations)\n");
  std::printf("%-10s %-7s %-7s %12s %14s\n", "isa", "blocks", "radix",
              "batch_us", "per_block_us");
  bench::print_rule();
  const std::size_t nt = static_cast<std::size_t>(k) + kTurboTail;
  constexpr int kMaxBatch = 4;
  AlignedVector<std::int16_t> streams[kMaxBatch][3];
  {
    Xoshiro256 rng(17);
    for (int b = 0; b < kMaxBatch; ++b) {
      std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
      for (auto& v : bits) v = static_cast<std::uint8_t>(rng.next() & 1);
      const auto cw = turbo_encode(bits);
      const std::uint8_t* d[3] = {cw.d0.data(), cw.d1.data(), cw.d2.data()};
      for (int s = 0; s < 3; ++s) {
        streams[b][s].resize(nt);
        for (std::size_t t = 0; t < nt; ++t) {
          streams[b][s][t] = static_cast<std::int16_t>(
              (d[s][t] ? 60 : -60) + int(rng.bounded(21)) - 10);
        }
      }
    }
  }
  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) {
      std::printf("%-10s (unavailable on this CPU)\n", isa_name(isa));
      continue;
    }
    const int nb = TurboBatchDecoder::lane_capacity(isa);
    for (const bool radix4 : {false, true}) {
      TurboBatchConfig bc;
      bc.isa = isa;
      bc.max_iterations = 4;
      bc.radix4 = radix4;
      TurboBatchDecoder dec(k, bc);
      std::vector<TurboBatchInput> inputs;
      std::vector<std::vector<std::uint8_t>> bouts(
          static_cast<std::size_t>(nb));
      std::vector<std::span<std::uint8_t>> out_spans;
      std::vector<TurboBatchResult> results(static_cast<std::size_t>(nb));
      const std::vector<std::uint8_t> force(static_cast<std::size_t>(nb), 1);
      for (int b = 0; b < nb; ++b) {
        inputs.push_back({streams[b][0], streams[b][1], streams[b][2]});
        bouts[static_cast<std::size_t>(b)].resize(static_cast<std::size_t>(k));
        out_spans.emplace_back(bouts[static_cast<std::size_t>(b)]);
      }
      const int reps = 40;
      Stopwatch sw;
      for (int r = 0; r < reps; ++r) {
        dec.decode_arranged(inputs, out_spans, results, force);
      }
      const double batch_s = sw.seconds() / reps;
      std::printf("%-10s %-7d %-7s %12.2f %14.2f\n", isa_name(isa), nb,
                  radix4 ? "4" : "2", batch_s * 1e6, batch_s / nb * 1e6);
    }
  }
  bench::print_rule();
  std::printf(
      "batching scales by blocks-per-register instead of windows: exact\n"
      "per-lane trellis boundaries, so wide tiers stay bit-identical to\n"
      "single-block SSE decoding while amortizing one kernel pass over B\n"
      "blocks.\n");

  // OFDM tx/rx vs register width: the float FFT + Q12 convert kernels
  // (PR 7), measured on the default 512-point / 300-subcarrier LTE
  // geometry. Output is byte-identical at every tier (exactness
  // contract, fft.h), so this is a pure speed comparison.
  std::printf(
      "\nOFDM modulate/demodulate vs register width (measured, 512-pt, "
      "4 symbols)\n");
  std::printf("%-10s %12s %12s\n", "isa", "tx_us", "rx_us");
  bench::print_rule();
  {
    const OfdmConfig ocfg;
    const int symbols = 4;
    const std::size_t n_res =
        static_cast<std::size_t>(ocfg.used_subcarriers) *
        static_cast<std::size_t>(symbols);
    std::vector<IqSample> res(n_res);
    Xoshiro256 rng(23);
    for (auto& re : res) {
      re.i = static_cast<std::int16_t>(rng.bounded(2048));
      re.q = static_cast<std::int16_t>(rng.bounded(2048));
    }
    for (auto isa : {IsaLevel::kScalar, IsaLevel::kSse41, IsaLevel::kAvx2,
                     IsaLevel::kAvx512}) {
      if (isa > best_isa()) {
        std::printf("%-10s (unavailable on this CPU)\n", isa_name(isa));
        continue;
      }
      const OfdmModulator ofdm(ocfg, isa);
      const auto time = ofdm.modulate(res);
      std::vector<IqSample> back(n_res);
      std::vector<Cf> scratch(static_cast<std::size_t>(ocfg.nfft));
      const int reps = 200;
      Stopwatch tx_sw;
      for (int r = 0; r < reps; ++r) ofdm.modulate(res);
      const double tx_s = tx_sw.seconds() / reps;
      Stopwatch rx_sw;
      for (int r = 0; r < reps; ++r) ofdm.demodulate_into(time, back, scratch);
      const double rx_s = rx_sw.seconds() / reps;
      std::printf("%-10s %12.2f %12.2f\n", isa_name(isa), tx_s * 1e6,
                  rx_s * 1e6);
    }
  }
  bench::print_rule();

  // Receive front vs register width: the max-log demap and descramble
  // kernels (DESIGN.md §5i), byte-identical at every tier, and the
  // packed-bit CRC, which has no ISA fork. The workloads are the port
  // model's trace_demap / trace_scramble / trace_crc twins.
  const auto time_us = [](const bench::hw::Workload& fn, int reps) {
    fn();
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) fn();
    return sw.seconds() / reps * 1e6;
  };
  std::printf(
      "\nReceive front vs register width (measured; 64QAM demap of 7200 "
      "symbols, descramble of 20000 LLRs)\n");
  std::printf("%-10s %12s %14s\n", "isa", "demap_us", "descramble_us");
  bench::print_rule();
  for (auto isa : {IsaLevel::kScalar, IsaLevel::kSse41, IsaLevel::kAvx2,
                   IsaLevel::kAvx512}) {
    if (isa > best_isa()) {
      std::printf("%-10s (unavailable on this CPU)\n", isa_name(isa));
      continue;
    }
    std::printf("%-10s %12.2f %14.2f\n", isa_name(isa),
                time_us(bench::hw::wl_demap(isa, 7200), 50),
                time_us(bench::hw::wl_descramble(isa, 20000), 200));
  }
  bench::print_rule();
  std::printf("crc24b over a 6144-bit block (packed, byte table): %.2f us\n",
              time_us(bench::hw::wl_crc(6144), 500));

  // Rate (de)matching vs register width (DESIGN.md §5j): run-walk HARQ
  // combining plus the transpose triple extraction on the receive side,
  // bit collection plus the run copy on the transmit side, byte-identical
  // at every tier. The ul-bulk block geometry; the workloads are the port
  // model's trace_rate_dematch / trace_rate_match twins.
  std::printf(
      "\nRate (de)matching vs register width (measured; K=4160, E=7280)\n");
  std::printf("%-10s %12s %12s\n", "isa", "dematch_us", "match_us");
  bench::print_rule();
  for (auto isa : {IsaLevel::kScalar, IsaLevel::kSse41, IsaLevel::kAvx2,
                   IsaLevel::kAvx512}) {
    if (isa > best_isa()) {
      std::printf("%-10s (unavailable on this CPU)\n", isa_name(isa));
      continue;
    }
    std::printf("%-10s %12.2f %12.2f\n", isa_name(isa),
                time_us(bench::hw::wl_rate_dematch(isa, 4160, 7280), 500),
                time_us(bench::hw::wl_rate_match(isa, 4160, 7280), 500));
  }
  bench::print_rule();
  return 0;
}
