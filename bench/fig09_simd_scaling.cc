// Figure 9: SIMD submodule processing time under SSE128 / AVX256 /
// AVX512 — measured on the real kernels, original vs APCM arrangement,
// plus the OFDM and receive-front (demap, descramble, CRC) kernels.
//
// Paper shape: the calculation submodules (gamma/alpha/beta/ext) shrink
// as registers widen, while the original data arrangement does NOT
// (it grows), so its share of the module balloons: 13% -> 17% -> 19.5%
// original vs 4.7% -> 3.4% -> 1.8% under APCM.
#include <array>
#include <cstdio>
#include <memory>

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

/// One noisy block's arranged streams through the windowed decoder's
/// decode_arranged(), `iterations` forced iterations.
bench::hw::Workload windowed_arranged(IsaLevel isa, int k, int iterations) {
  const auto w = make_workload(k);
  const std::size_t nt = static_cast<std::size_t>(k) + kTurboTail;
  using Streams = std::array<AlignedVector<std::int16_t>, 3>;
  auto streams = std::make_shared<Streams>();
  for (std::size_t s = 0; s < 3; ++s) {
    (*streams)[s].resize(nt);
    for (std::size_t t = 0; t < nt; ++t) (*streams)[s][t] = w.llr[3 * t + s];
  }
  TurboDecodeConfig cfg;
  cfg.isa = isa;
  cfg.max_iterations = iterations;
  auto dec = std::make_shared<TurboDecoder>(k, cfg);
  auto out =
      std::make_shared<std::vector<std::uint8_t>>(static_cast<std::size_t>(k));
  return [dec, streams, out] {
    dec->decode_arranged((*streams)[0], (*streams)[1], (*streams)[2], *out,
                         /*force_full_iterations=*/true);
  };
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

  const auto time_us = [](const bench::hw::Workload& fn, int reps) {
    fn();
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) fn();
    return sw.seconds() / reps * 1e6;
  };

  // Batched-lane decoding: B same-K blocks, one whole trellis per 8-state
  // lane group, exact boundaries at every width. Same fixed iteration
  // count as above (forced) so per-block time is directly comparable
  // with the windowed decode_us column. K = 4160 is the ul-bulk block.
  std::printf(
      "\nBatched-lane decoding (one code block per lane group, 4 fixed "
      "iterations)\n");
  std::printf("%-10s %-6s %-7s %12s %14s\n", "isa", "K", "blocks",
              "batch_us", "per_block_us");
  bench::print_rule();
  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) {
      std::printf("%-10s (unavailable on this CPU)\n", isa_name(isa));
      continue;
    }
    const int nb = TurboBatchDecoder::lane_capacity(isa);
    for (const int bk : {4160, 6144}) {
      const double batch_us =
          time_us(bench::hw::wl_turbo_decode_batch(isa, bk, 4), 40);
      std::printf("%-10s %-6d %-7d %12.2f %14.2f\n", isa_name(isa), bk, nb,
                  batch_us, batch_us / nb);
    }
  }
  bench::print_rule();
  std::printf(
      "batching scales by blocks-per-register instead of windows: exact\n"
      "per-lane trellis boundaries, so wide tiers stay bit-identical to\n"
      "single-block SSE decoding while amortizing one kernel pass over B\n"
      "blocks.\n");

  // One block alone: the exact 1-lane kernel (what the batch route runs
  // for a singleton group) against the windowed AVX-512 decoder, both on
  // arranged streams with forced iterations. Retiring the windowed route
  // costs single blocks nothing only if exact_us <= windowed_us.
  std::printf(
      "\nSingle block: exact 1-lane kernel vs windowed avx512 "
      "(decode_arranged, forced iterations)\n");
  std::printf("%-6s %-6s %12s %14s %8s\n", "K", "iters", "exact_us",
              "windowed_us", "ratio");
  bench::print_rule();
  if (IsaLevel::kAvx512 > best_isa()) {
    std::printf("avx512 (unavailable on this CPU)\n");
  } else {
    for (const int bk : {1024, 4160}) {
      for (const int iters : {1, 6}) {
        const double exact = time_us(
            bench::hw::wl_turbo_decode_batch(IsaLevel::kSse41, bk, iters),
            100);
        const double windowed =
            time_us(windowed_arranged(IsaLevel::kAvx512, bk, iters), 100);
        std::printf("%-6d %-6d %12.2f %14.2f %8.2f\n", bk, iters, exact,
                    windowed, exact / windowed);
      }
    }
  }
  bench::print_rule();

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
