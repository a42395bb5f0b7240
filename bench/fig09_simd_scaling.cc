// Figure 9: SIMD submodule processing time under SSE128 / AVX256 /
// AVX512 — measured on the real kernels, original vs APCM arrangement,
// plus the OFDM, receive-front (demap, descramble, CRC), rate-matching
// and AWGN channel kernels.
//
// Every number is the median of 15 rounds in which each row and column
// of its table takes one sample in turn (median_rounds), so host noise
// hits the entries of a table alike: single back-to-back bursts moved
// rows by up to 35 % on a shared 4-vCPU VM.
//
// Paper shape: the calculation submodules (gamma/alpha/beta/ext) shrink
// as registers widen, while the original data arrangement does NOT
// (it grows), so its share of the module balloons: 13% -> 17% -> 19.5%
// original vs 4.7% -> 3.4% -> 1.8% under APCM.
#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <iterator>
#include <memory>
#include <vector>

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

/// The median over `rounds` rounds of `sample(v)` for each way v < ways;
/// every round samples every way in turn.
std::vector<double> median_rounds(
    std::size_t ways, const std::function<double(std::size_t)>& sample,
    int rounds = 15) {
  std::vector<std::vector<double>> runs(ways);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t v = 0; v < ways; ++v) runs[v].push_back(sample(v));
  }
  std::vector<double> medians;
  for (auto& x : runs) {
    std::sort(x.begin(), x.end());
    medians.push_back(x[x.size() / 2]);
  }
  return medians;
}

/// Mean us per call of one burst of `reps` calls after a warm-up call.
double time_us(const bench::hw::Workload& fn, int reps) {
  fn();
  Stopwatch sw;
  for (int r = 0; r < reps; ++r) fn();
  return sw.seconds() / reps * 1e6;
}

/// median_rounds of wall time, one burst of `reps` calls per sample.
std::vector<double> median_us(const std::vector<bench::hw::Workload>& ways,
                              int reps) {
  return median_rounds(ways.size(),
                       [&](std::size_t v) { return time_us(ways[v], reps); });
}

constexpr IsaLevel kSimdTiers[] = {IsaLevel::kSse41, IsaLevel::kAvx2,
                                   IsaLevel::kAvx512};
constexpr IsaLevel kAllTiers[] = {IsaLevel::kScalar, IsaLevel::kSse41,
                                  IsaLevel::kAvx2, IsaLevel::kAvx512};

/// The tiers of `tiers` this CPU runs; prints an "unavailable" row for
/// each of the others.
template <std::size_t N>
std::vector<IsaLevel> available(const IsaLevel (&tiers)[N]) {
  std::vector<IsaLevel> out;
  for (const auto isa : tiers) {
    if (isa > best_isa()) {
      std::printf("%-10s (unavailable on this CPU)\n", isa_name(isa));
    } else {
      out.push_back(isa);
    }
  }
  return out;
}

}  // namespace

int main() {
  bench::print_header(
      "Fig. 9 — Turbo-decode submodule time vs register width (measured)");

  const int k = 6144;
  const auto w = make_workload(k);

  std::printf("%-10s %-9s %12s %12s %10s\n", "isa", "arrange", "arrange_us",
              "decode_us", "arr.share");
  bench::print_rule();
  {
    // Two ways per (tier, method): the arrange and the compute share of
    // the same decode call, each the mean of a burst of 10 calls.
    struct Config {
      IsaLevel isa;
      arrange::Method method;
      std::shared_ptr<TurboDecoder> dec;
    };
    std::vector<Config> configs;
    for (const auto isa : available(kSimdTiers)) {
      for (auto method : {arrange::Method::kExtract, arrange::Method::kApcm}) {
        TurboDecodeConfig cfg;
        cfg.isa = isa;
        cfg.arrange_method = method;
        cfg.max_iterations = 4;
        cfg.early_stop = false;  // fixed work for a fair width comparison
        configs.push_back(
            {isa, method, std::make_shared<TurboDecoder>(k, cfg)});
      }
    }
    std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
    const auto us = median_rounds(2 * configs.size(), [&](std::size_t v) {
      const int reps = 10;
      double s = 0;
      for (int r = 0; r < reps; ++r) {
        const auto res = configs[v / 2].dec->decode(w.llr, out);
        s += v % 2 == 0 ? res.arrange_seconds : res.compute_seconds;
      }
      return s / reps * 1e6;
    });
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const double arrange_us = us[2 * c], compute_us = us[2 * c + 1];
      std::printf("%-10s %-9s %12.2f %12.2f %9.1f%%\n",
                  isa_name(configs[c].isa),
                  arrange::method_name(configs[c].method), arrange_us,
                  compute_us, 100 * arrange_us / (arrange_us + compute_us));
    }
  }
  bench::print_rule();
  std::printf(
      "paper shape: calculation time halves per width step; original\n"
      "arrangement share grows 13%% -> 17%% -> 19.5%%, APCM share shrinks\n"
      "4.7%% -> 3.4%% -> 1.8%%\n");

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
  {
    const int ks[] = {4160, 6144};
    const auto tiers = available(kSimdTiers);
    std::vector<bench::hw::Workload> ways;
    for (const auto isa : tiers) {
      for (const int bk : ks) {
        ways.push_back(bench::hw::wl_turbo_decode_batch(isa, bk, 4));
      }
    }
    const auto us = median_us(ways, 8);
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      const int nb = TurboBatchDecoder::lane_capacity(tiers[t]);
      for (std::size_t i = 0; i < 2; ++i) {
        const double batch_us = us[2 * t + i];
        std::printf("%-10s %-6d %-7d %12.2f %14.2f\n", isa_name(tiers[t]),
                    ks[i], nb, batch_us, batch_us / nb);
      }
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
    const int cases[][2] = {{1024, 1}, {1024, 6}, {4160, 1}, {4160, 6}};
    std::vector<bench::hw::Workload> ways;
    for (const auto& [bk, iters] : cases) {
      ways.push_back(
          bench::hw::wl_turbo_decode_batch(IsaLevel::kSse41, bk, iters));
      ways.push_back(windowed_arranged(IsaLevel::kAvx512, bk, iters));
    }
    const auto us = median_us(ways, 10);
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      std::printf("%-6d %-6d %12.2f %14.2f %8.2f\n", cases[c][0],
                  cases[c][1], us[2 * c], us[2 * c + 1],
                  us[2 * c] / us[2 * c + 1]);
    }
  }
  bench::print_rule();

  // Mixed-K lane groups: the decode scheduler packs leftover single-block
  // TBs in K-descending groups of lane capacity, right-aligned in the
  // lanes. Two sets of four blocks, one spread over K and one skewed (a
  // long block beside three of the shortest K), each decoded four ways:
  // mixed groups; four blocks of the set's longest K in the same groups
  // (the same-K, one-copy interleaver path, and the mixed set's padded
  // step count); the longest block alone and the rest grouped (what the
  // scheduler does with a group below kMinGroupFill); and one block per
  // call (one lane each).
  std::printf(
      "\nMixed-K groups: sets of four blocks (forced iterations, us per "
      "set)\n");
  std::printf("%-22s %-8s %-6s %9s %9s %9s %10s %8s\n", "K set", "isa",
              "iters", "mixed_us", "same_k_us", "split_us", "singles_us",
              "singles/mixed");
  bench::print_rule();
  // Blocks `ks` decoded as one call per group: the first `first` blocks,
  // then groups of `per_call`.
  const auto make_set = [](IsaLevel isa, const std::vector<int>& ks,
                           std::size_t first, std::size_t per_call,
                           int iters) {
    std::vector<bench::hw::Workload> calls;
    for (std::size_t g = 0; g < ks.size();) {
      const auto end = std::min(g + (g == 0 ? first : per_call), ks.size());
      calls.push_back(bench::hw::wl_turbo_decode_group(
          isa,
          std::vector<int>(ks.begin() + static_cast<std::ptrdiff_t>(g),
                           ks.begin() + static_cast<std::ptrdiff_t>(end)),
          iters));
      g = end;
    }
    return bench::hw::Workload([calls] {
      for (const auto& c : calls) c();
    });
  };
  const std::vector<int> mixed_sets[] = {{5056, 3520, 2016, 1024},
                                         {5056, 40, 40, 40}};
  for (const auto& ks : mixed_sets) {
    char label[32];
    std::snprintf(label, sizeof label, "{%d,%d,%d,%d}", ks[0], ks[1], ks[2],
                  ks[3]);
    for (auto isa : {IsaLevel::kAvx2, IsaLevel::kAvx512}) {
      if (isa > best_isa()) {
        std::printf("%-22s %-8s (unavailable on this CPU)\n", label,
                    isa_name(isa));
        continue;
      }
      const auto cap =
          static_cast<std::size_t>(TurboBatchDecoder::lane_capacity(isa));
      for (const int iters : {1, 6}) {
        const auto us = median_us(
            {make_set(isa, ks, cap, cap, iters),
             make_set(isa, std::vector<int>(4, ks.front()), cap, cap, iters),
             make_set(isa, ks, 1, cap, iters), make_set(isa, ks, 1, 1, iters)},
            8);
        std::printf("%-22s %-8s %-6d %9.2f %9.2f %9.2f %10.2f %8.2f\n", label,
                    isa_name(isa), iters, us[0], us[1], us[2], us[3],
                    us[3] / us[0]);
      }
    }
  }
  bench::print_rule();

  // OFDM tx/rx vs register width: the register-resident FFT (DESIGN.md
  // §5g) with the Q12 convert kernels, on one ul-bulk UE subframe (12
  // symbols) in the benchmark's 512-point / 300-subcarrier / CP-36
  // geometry. Output is byte-identical at every tier (exactness
  // contract, fft.h), so this is a pure speed comparison.
  const int ofdm_symbols = 12;
  std::printf(
      "\nOFDM modulate/demodulate vs register width (measured; one ul-bulk "
      "UE subframe, %d symbols of 512 points)\n",
      ofdm_symbols);
  std::printf("%-10s %12s %12s %12s %12s\n", "isa", "tx_us", "tx_us/sym",
              "rx_us", "rx_us/sym");
  bench::print_rule();
  {
    const OfdmConfig ocfg;  // the pipelines' default geometry
    const std::size_t n_res =
        static_cast<std::size_t>(ocfg.used_subcarriers) *
        static_cast<std::size_t>(ofdm_symbols);
    auto res = std::make_shared<std::vector<IqSample>>(n_res);
    Xoshiro256 rng(23);
    for (auto& re : *res) {
      re.i = static_cast<std::int16_t>(rng.bounded(2048));
      re.q = static_cast<std::int16_t>(rng.bounded(2048));
    }
    const auto tiers = available(kAllTiers);
    std::vector<bench::hw::Workload> ways;
    for (const auto isa : tiers) {
      auto ofdm = std::make_shared<const OfdmModulator>(ocfg, isa);
      auto time = std::make_shared<std::vector<Cf>>(ofdm->modulate(*res));
      auto back = std::make_shared<std::vector<IqSample>>(n_res);
      auto scratch = std::make_shared<std::vector<Cf>>(
          static_cast<std::size_t>(ocfg.nfft));
      ways.push_back([ofdm, res] { ofdm->modulate(*res); });
      ways.push_back([ofdm, time, back, scratch] {
        ofdm->demodulate_into(*time, *back, *scratch);
      });
    }
    const auto us = median_us(ways, 10);
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      std::printf("%-10s %12.2f %12.3f %12.2f %12.3f\n", isa_name(tiers[t]),
                  us[2 * t], us[2 * t] / ofdm_symbols, us[2 * t + 1],
                  us[2 * t + 1] / ofdm_symbols);
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
  {
    const auto tiers = available(kAllTiers);
    std::vector<bench::hw::Workload> ways;
    for (const auto isa : tiers) {
      ways.push_back(bench::hw::wl_demap(isa, 7200));
      ways.push_back(bench::hw::wl_descramble(isa, 20000));
    }
    ways.push_back(bench::hw::wl_crc(6144));
    const auto us = median_us(ways, 10);
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      std::printf("%-10s %12.2f %14.2f\n", isa_name(tiers[t]), us[2 * t],
                  us[2 * t + 1]);
    }
    bench::print_rule();
    std::printf("crc24b over a 6144-bit block (packed, byte table): %.2f us\n",
                us.back());
  }

  // Rate (de)matching vs register width (DESIGN.md §5j): run-walk HARQ
  // combining plus the transpose triple extraction on the receive side,
  // bit collection plus the run copy on the transmit side, byte-identical
  // at every tier. The ul-bulk block geometry; the workloads are the port
  // model's trace_rate_dematch / trace_rate_match twins.
  std::printf(
      "\nRate (de)matching vs register width (measured; K=4160, E=7280)\n");
  std::printf("%-10s %12s %12s\n", "isa", "dematch_us", "match_us");
  bench::print_rule();
  {
    const auto tiers = available(kAllTiers);
    std::vector<bench::hw::Workload> ways;
    for (const auto isa : tiers) {
      ways.push_back(bench::hw::wl_rate_dematch(isa, 4160, 7280));
      ways.push_back(bench::hw::wl_rate_match(isa, 4160, 7280));
    }
    const auto us = median_us(ways, 50);
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      std::printf("%-10s %12.2f %12.2f\n", isa_name(tiers[t]), us[2 * t],
                  us[2 * t + 1]);
    }
  }
  bench::print_rule();

  // AWGN channel vs register width (DESIGN.md §5k): the testbed's noise
  // kernel on one ul-bulk UE subframe (12 OFDM symbols of 548 samples),
  // bit-identical at every tier. vs_narrower is the next narrower
  // tier's time over this one's; a SIMD body stays only while it wins.
  const std::size_t subframe = 6576;
  std::printf(
      "\nChannel vs register width (measured; AWGN onto one ul-bulk UE "
      "subframe, %zu samples)\n",
      subframe);
  std::printf("%-10s %12s %12s %12s\n", "isa", "channel_us", "ns/sample",
              "vs_narrower");
  bench::print_rule();
  {
    const auto tiers = available(kAllTiers);
    std::vector<bench::hw::Workload> ways;
    for (const auto isa : tiers) {
      ways.push_back(bench::hw::wl_channel(isa, subframe));
    }
    const auto us = median_us(ways, 20);
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      std::printf("%-10s %12.2f %12.2f", isa_name(tiers[t]), us[t],
                  us[t] * 1e3 / static_cast<double>(subframe));
      if (t > 0) {
        std::printf(" %11.2fx\n", us[t - 1] / us[t]);
      } else {
        std::printf(" %12s\n", "-");
      }
    }
  }
  bench::print_rule();
  return 0;
}
