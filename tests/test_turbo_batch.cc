// Batched-lane turbo decoder: bit-exactness against the single-block
// decoder at every register width, lane compaction / early-termination
// voting behaviour, exactness with saturated branch sums, and the
// decoder edge-case regressions fixed alongside the batch work (stale
// hard_ on zero-iteration configs, reused-decoder determinism).
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "phy/crc/crc.h"
#include "phy/turbo/turbo_batch.h"
#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::phy {
namespace {

/// One encoded block with per-stream LLRs (K+4 each, the arranged
/// layout) at a controllable noise level. `noise` >= `amp` flips signs.
struct NoisyBlock {
  std::vector<std::uint8_t> bits;
  AlignedVector<std::int16_t> sys, p1, p2;
};

NoisyBlock make_block(int k, std::uint64_t seed, int amp, int noise,
                      bool crc24b = false) {
  NoisyBlock nb;
  Xoshiro256 rng(seed);
  nb.bits.resize(static_cast<std::size_t>(k));
  if (crc24b) {
    nb.bits.resize(static_cast<std::size_t>(k) - 24);
    for (auto& b : nb.bits) b = static_cast<std::uint8_t>(rng.next() & 1);
    crc_attach(nb.bits, CrcType::k24B);
  } else {
    for (auto& b : nb.bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  }
  const auto cw = turbo_encode(nb.bits);
  const std::size_t nt = cw.d0.size();
  nb.sys.resize(nt);
  nb.p1.resize(nt);
  nb.p2.resize(nt);
  const auto jitter = [&]() {
    return static_cast<std::int16_t>(
        static_cast<int>(rng.next() % (2 * static_cast<std::uint64_t>(noise) + 1)) -
        noise);
  };
  for (std::size_t t = 0; t < nt; ++t) {
    nb.sys[t] = static_cast<std::int16_t>((cw.d0[t] ? amp : -amp) + jitter());
    nb.p1[t] = static_cast<std::int16_t>((cw.d1[t] ? amp : -amp) + jitter());
    nb.p2[t] = static_cast<std::int16_t>((cw.d2[t] ? amp : -amp) + jitter());
  }
  return nb;
}

/// Single-block reference: the one-window SSE decoder at the same
/// iteration config, which runs the batch kernels' op sequence. (The
/// scalar reference agrees with it on unsaturated inputs; on railed
/// inputs the two part ways, see ROADMAP item 3.)
TurboDecodeResult decode_single(const NoisyBlock& nb, int k,
                                std::span<std::uint8_t> out, int max_it,
                                bool crc24b, bool force = false) {
  TurboDecodeConfig cfg;
  cfg.isa = IsaLevel::kSse41;
  cfg.max_iterations = max_it;
  if (crc24b) cfg.crc = CrcType::k24B;
  TurboDecoder dec(k, cfg);
  return dec.decode_arranged(nb.sys, nb.p1, nb.p2, out, force);
}

void expect_batch_matches_single(IsaLevel isa, int k, int batch_size,
                                 std::uint64_t seed, int amp, int noise,
                                 bool crc24b) {
  TurboBatchConfig bc;
  bc.isa = isa;
  bc.max_iterations = 6;
  if (crc24b) bc.crc = CrcType::k24B;
  TurboBatchDecoder bdec(k, bc);
  ASSERT_LE(batch_size, bdec.capacity());

  std::vector<NoisyBlock> blocks;
  std::vector<TurboBatchInput> inputs;
  std::vector<std::vector<std::uint8_t>> outs(
      static_cast<std::size_t>(batch_size));
  std::vector<std::span<std::uint8_t>> out_spans;
  for (int b = 0; b < batch_size; ++b) {
    blocks.push_back(make_block(k, seed + static_cast<std::uint64_t>(b), amp,
                                noise, crc24b));
    outs[static_cast<std::size_t>(b)].resize(static_cast<std::size_t>(k));
  }
  for (int b = 0; b < batch_size; ++b) {
    inputs.push_back({blocks[static_cast<std::size_t>(b)].sys,
                      blocks[static_cast<std::size_t>(b)].p1,
                      blocks[static_cast<std::size_t>(b)].p2});
    out_spans.emplace_back(outs[static_cast<std::size_t>(b)]);
  }
  std::vector<TurboBatchResult> results(static_cast<std::size_t>(batch_size));
  bdec.decode_arranged(inputs, out_spans, results);

  for (int b = 0; b < batch_size; ++b) {
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
    const auto rr = decode_single(blocks[static_cast<std::size_t>(b)], k, ref,
                                  6, crc24b);
    const auto& br = results[static_cast<std::size_t>(b)];
    EXPECT_EQ(outs[static_cast<std::size_t>(b)], ref)
        << "K=" << k << " isa=" << isa_name(isa) << " block " << b
        << " batch=" << batch_size;
    EXPECT_EQ(br.iterations, rr.iterations) << "K=" << k << " block " << b;
    EXPECT_EQ(br.crc_ok, rr.crc_ok) << "K=" << k << " block " << b;
    EXPECT_EQ(br.converged, rr.converged) << "K=" << k << " block " << b;
  }
}

TEST(TurboBatch, MatchesSingleSseAtEveryTierFullBatch) {
  for (const IsaLevel isa :
       {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) continue;
    const int cap = TurboBatchDecoder::lane_capacity(isa);
    for (const int k : {40, 512, 2432, 6144}) {
      expect_batch_matches_single(isa, k, cap, 1000 + static_cast<std::uint64_t>(k),
                                  6, 9, true);
    }
  }
}

TEST(TurboBatch, MatchesSingleOnRaggedBatches) {
  const IsaLevel isa = best_isa();
  if (TurboBatchDecoder::lane_capacity(isa) < 2) {
    GTEST_SKIP() << "no multi-lane tier on this host";
  }
  const int cap = TurboBatchDecoder::lane_capacity(isa);
  for (int bs = 1; bs <= cap; ++bs) {
    expect_batch_matches_single(isa, 1504, bs,
                                77 + static_cast<std::uint64_t>(bs), 6, 9,
                                true);
    expect_batch_matches_single(isa, 320, bs,
                                770 + static_cast<std::uint64_t>(bs), 6, 9,
                                true);
  }
}

TEST(TurboBatch, MixedConvergenceVotesPerLane) {
  // One clean block (CRC-stops after the first iteration), the rest
  // noisy enough to burn several iterations: the clean lane must freeze
  // early and the survivors must still match single-block decoding
  // after compaction kicks in.
  const IsaLevel isa = best_isa();
  const int cap = TurboBatchDecoder::lane_capacity(isa);
  if (cap < 2) GTEST_SKIP() << "no multi-lane tier on this host";
  const int k = 2048;

  TurboBatchConfig bc;
  bc.isa = isa;
  bc.crc = CrcType::k24B;
  TurboBatchDecoder bdec(k, bc);

  std::vector<NoisyBlock> blocks;
  blocks.push_back(make_block(k, 42, 60, 0, true));  // noiseless: instant
  for (int b = 1; b < cap; ++b) {
    blocks.push_back(
        make_block(k, 600 + static_cast<std::uint64_t>(b), 5, 9, true));
  }
  std::vector<TurboBatchInput> inputs;
  std::vector<std::vector<std::uint8_t>> outs(blocks.size());
  std::vector<std::span<std::uint8_t>> out_spans;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    outs[b].resize(static_cast<std::size_t>(k));
    inputs.push_back({blocks[b].sys, blocks[b].p1, blocks[b].p2});
    out_spans.emplace_back(outs[b]);
  }
  std::vector<TurboBatchResult> results(blocks.size());
  bdec.decode_arranged(inputs, out_spans, results);

  EXPECT_EQ(results[0].iterations, 1);
  EXPECT_TRUE(results[0].crc_ok);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
    const auto rr = decode_single(blocks[b], k, ref, 6, true);
    EXPECT_EQ(outs[b], ref) << "block " << b;
    EXPECT_EQ(results[b].iterations, rr.iterations) << "block " << b;
    EXPECT_EQ(results[b].crc_ok, rr.crc_ok) << "block " << b;
  }
}

TEST(TurboBatch, ForceFullIterationsMatchesSingle) {
  const IsaLevel isa = best_isa();
  const int cap = TurboBatchDecoder::lane_capacity(isa);
  const int k = 512;
  TurboBatchConfig bc;
  bc.isa = isa;
  bc.crc = CrcType::k24B;
  TurboBatchDecoder bdec(k, bc);

  std::vector<NoisyBlock> blocks;
  std::vector<TurboBatchInput> inputs;
  std::vector<std::vector<std::uint8_t>> outs(static_cast<std::size_t>(cap));
  std::vector<std::span<std::uint8_t>> out_spans;
  std::vector<std::uint8_t> force(static_cast<std::size_t>(cap), 0);
  for (int b = 0; b < cap; ++b) {
    blocks.push_back(
        make_block(k, 900 + static_cast<std::uint64_t>(b), 40, 0, true));
    outs[static_cast<std::size_t>(b)].resize(static_cast<std::size_t>(k));
    force[static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(b % 2);  // force odd lanes only
  }
  for (int b = 0; b < cap; ++b) {
    inputs.push_back({blocks[static_cast<std::size_t>(b)].sys,
                      blocks[static_cast<std::size_t>(b)].p1,
                      blocks[static_cast<std::size_t>(b)].p2});
    out_spans.emplace_back(outs[static_cast<std::size_t>(b)]);
  }
  std::vector<TurboBatchResult> results(static_cast<std::size_t>(cap));
  bdec.decode_arranged(inputs, out_spans, results, force);

  for (int b = 0; b < cap; ++b) {
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
    const auto rr = decode_single(blocks[static_cast<std::size_t>(b)], k, ref,
                                  6, true, b % 2 != 0);
    EXPECT_EQ(outs[static_cast<std::size_t>(b)], ref) << "block " << b;
    EXPECT_EQ(results[static_cast<std::size_t>(b)].iterations, rr.iterations)
        << "block " << b;
    EXPECT_EQ(results[static_cast<std::size_t>(b)].crc_ok, rr.crc_ok)
        << "block " << b;
  }
}

/// Arranged streams on the int16 rails: each LLR is `pos` or `neg` by its
/// code bit, with a seeded 1 in 8 sign-flipped at full magnitude, so the
/// branch sums the extrinsic reduction folds saturate along with the
/// a-priori and extrinsic values.
NoisyBlock make_railed_block(int k, std::uint64_t seed, std::int16_t pos,
                             std::int16_t neg) {
  NoisyBlock nb;
  Xoshiro256 rng(seed);
  nb.bits.resize(static_cast<std::size_t>(k) - 24);
  for (auto& b : nb.bits) b = static_cast<std::uint8_t>(rng.next() & 1);
  crc_attach(nb.bits, CrcType::k24B);
  const auto cw = turbo_encode(nb.bits);
  const std::size_t nt = cw.d0.size();
  const std::uint8_t* d[3] = {cw.d0.data(), cw.d1.data(), cw.d2.data()};
  AlignedVector<std::int16_t>* streams[3] = {&nb.sys, &nb.p1, &nb.p2};
  for (int s = 0; s < 3; ++s) {
    streams[s]->resize(nt);
    for (std::size_t t = 0; t < nt; ++t) {
      const bool one = (d[s][t] != 0) != (rng.next() % 8 == 0);
      (*streams[s])[t] = one ? pos : neg;
    }
  }
  return nb;
}

TEST(TurboBatch, SaturatedInputsMatchSingleAtEveryTier) {
  struct Rails {
    std::int16_t pos, neg;
  };
  // The demapper cap, the symmetric HARQ-combining clamp, and the full
  // int16 range.
  const Rails rails[] = {{4095, -4095}, {32767, -32767}, {32767, -32768}};
  for (const IsaLevel isa :
       {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) continue;
    const int cap = TurboBatchDecoder::lane_capacity(isa);
    for (const int k : {40, 1024, 6144}) {
      TurboBatchConfig bc;
      bc.isa = isa;
      bc.max_iterations = 6;
      bc.crc = CrcType::k24B;
      TurboBatchDecoder bdec(k, bc);
      for (const Rails r : rails) {
        std::vector<NoisyBlock> blocks;
        std::vector<TurboBatchInput> inputs;
        std::vector<std::vector<std::uint8_t>> outs(
            static_cast<std::size_t>(cap),
            std::vector<std::uint8_t>(static_cast<std::size_t>(k)));
        std::vector<std::span<std::uint8_t>> out_spans;
        for (int b = 0; b < cap; ++b) {
          blocks.push_back(make_railed_block(
              k, 3000 + static_cast<std::uint64_t>(k + b), r.pos, r.neg));
        }
        for (int b = 0; b < cap; ++b) {
          const auto& blk = blocks[static_cast<std::size_t>(b)];
          inputs.push_back({blk.sys, blk.p1, blk.p2});
          out_spans.emplace_back(outs[static_cast<std::size_t>(b)]);
        }
        std::vector<TurboBatchResult> results(static_cast<std::size_t>(cap));
        const std::vector<std::uint8_t> force(static_cast<std::size_t>(cap),
                                              1);
        bdec.decode_arranged(inputs, out_spans, results, force);
        for (int b = 0; b < cap; ++b) {
          std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
          const auto rr = decode_single(blocks[static_cast<std::size_t>(b)],
                                        k, ref, 6, true, true);
          const auto& br = results[static_cast<std::size_t>(b)];
          EXPECT_EQ(outs[static_cast<std::size_t>(b)], ref)
              << "K=" << k << " isa=" << isa_name(isa) << " rails " << r.pos
              << "/" << r.neg << " block " << b;
          EXPECT_EQ(br.iterations, 6);
          EXPECT_EQ(br.crc_ok, rr.crc_ok) << "K=" << k << " block " << b;
        }
      }
    }
  }
}

TEST(TurboBatch, TwoCompactionsRepackStepMajorStateMidDecode) {
  // Four blocks at AVX-512: two clean ones stop after iteration 1, which
  // compacts the batch to the 2-lane kernel; a third stops later, which
  // compacts it to the 1-lane kernel while the fourth is still running.
  // Every block must still match single-block decoding exactly.
  if (IsaLevel::kAvx512 > best_isa()) {
    GTEST_SKIP() << "no AVX-512 on this host";
  }
  const int k = 1024;
  TurboBatchConfig bc;
  bc.isa = IsaLevel::kAvx512;
  bc.crc = CrcType::k24B;
  TurboBatchDecoder bdec(k, bc);

  std::vector<NoisyBlock> blocks;
  blocks.push_back(make_block(k, 51, 60, 0, true));  // stops at 1
  blocks.push_back(make_block(k, 52, 60, 0, true));  // stops at 1
  blocks.push_back(make_block(k, 50, 6, 9, true));   // stops at 2
  blocks.push_back(make_block(k, 55, 5, 9, true));   // stops at 4
  std::vector<TurboBatchInput> inputs;
  std::vector<std::vector<std::uint8_t>> outs(blocks.size());
  std::vector<std::span<std::uint8_t>> out_spans;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    outs[b].resize(static_cast<std::size_t>(k));
    inputs.push_back({blocks[b].sys, blocks[b].p1, blocks[b].p2});
    out_spans.emplace_back(outs[b]);
  }
  std::vector<TurboBatchResult> results(blocks.size());
  bdec.decode_arranged(inputs, out_spans, results);

  EXPECT_EQ(results[0].iterations, 1);
  EXPECT_EQ(results[1].iterations, 1);
  EXPECT_GT(results[2].iterations, 1);
  EXPECT_GT(results[3].iterations, results[2].iterations);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
    const auto rr = decode_single(blocks[b], k, ref, 6, true);
    EXPECT_EQ(outs[b], ref) << "block " << b;
    EXPECT_EQ(results[b].iterations, rr.iterations) << "block " << b;
    EXPECT_EQ(results[b].crc_ok, rr.crc_ok) << "block " << b;
    EXPECT_EQ(results[b].converged, rr.converged) << "block " << b;
  }
}

// ---------------------------------------------------------------------------
// Decoder edge-case regressions (satellite bugfixes).
// ---------------------------------------------------------------------------

TEST(TurboDecoderRegression, ZeroIterationConfigRejected) {
  // Pre-fix behaviour: max_iterations <= 0 skipped the MAP loop entirely
  // and decode_arranged copied the *previous* decode's hard_ into
  // bits_out (and CRC-checked the stale bits). The config is now
  // rejected at construction.
  for (const int bad : {0, -1, -6}) {
    TurboDecodeConfig cfg;
    cfg.max_iterations = bad;
    EXPECT_THROW(TurboDecoder(512, cfg), std::invalid_argument) << bad;
    TurboBatchConfig bc;
    bc.max_iterations = bad;
    EXPECT_THROW(TurboBatchDecoder(512, bc), std::invalid_argument) << bad;
  }
}

TEST(TurboDecoderRegression, ReusedDecoderOutputIndependentOfHistory) {
  // Decoding block B after block A must give exactly the bits a fresh
  // decoder gives for B — no state (hard_, hard_prev_, extrinsics) may
  // leak between calls on the same object.
  const int k = 320;
  const auto a = make_block(k, 11, 6, 9, true);
  const auto b = make_block(k, 12, 6, 9, true);

  TurboDecodeConfig cfg;
  cfg.isa = IsaLevel::kSse41;
  cfg.crc = CrcType::k24B;
  TurboDecoder fresh(k, cfg);
  std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
  const auto ref_res = fresh.decode_arranged(b.sys, b.p1, b.p2, ref);

  TurboDecoder reused(k, cfg);
  std::vector<std::uint8_t> tmp(static_cast<std::size_t>(k));
  reused.decode_arranged(a.sys, a.p1, a.p2, tmp);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
  const auto res = reused.decode_arranged(b.sys, b.p1, b.p2, out);

  EXPECT_EQ(out, ref);
  EXPECT_EQ(res.iterations, ref_res.iterations);
  EXPECT_EQ(res.crc_ok, ref_res.crc_ok);
}

TEST(TurboBatch, RejectsBadGeometry) {
  TurboBatchConfig bc;
  bc.isa = IsaLevel::kScalar;
  EXPECT_THROW(TurboBatchDecoder(512, bc), std::invalid_argument);

  TurboBatchDecoder dec(512);
  std::vector<TurboBatchInput> none;
  std::vector<std::span<std::uint8_t>> outs;
  std::vector<TurboBatchResult> results;
  EXPECT_THROW(dec.decode_arranged(none, outs, results),
               std::invalid_argument);
}

}  // namespace
}  // namespace vran::phy
