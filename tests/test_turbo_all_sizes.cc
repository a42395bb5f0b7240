// Exhaustive property sweep over every legal turbo block size: encoder
// geometry, noiseless decode round trip, and rate-matching round trip
// for all 188 QPP sizes. Catches table typos and per-size boundary bugs
// (tails, window divisibility, sub-block geometry) that spot checks miss.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "phy/ratematch/rate_match.h"
#include "phy/turbo/qpp_interleaver.h"
#include "phy/turbo/turbo_batch.h"
#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::phy {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> b(n);
  Xoshiro256 rng(seed);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next() & 1);
  return b;
}

AlignedVector<std::int16_t> codeword_to_llr(const TurboCodeword& cw,
                                            std::int16_t amp) {
  AlignedVector<std::int16_t> llr(3 * cw.d0.size());
  for (std::size_t t = 0; t < cw.d0.size(); ++t) {
    llr[3 * t] = cw.d0[t] ? amp : static_cast<std::int16_t>(-amp);
    llr[3 * t + 1] = cw.d1[t] ? amp : static_cast<std::int16_t>(-amp);
    llr[3 * t + 2] = cw.d2[t] ? amp : static_cast<std::int16_t>(-amp);
  }
  return llr;
}

TEST(AllSizes, EverySizeDivisibleByEight) {
  // The windowed SIMD decoder and the batched decoder's right-aligned
  // groups (4-step extrinsic rounds, 8-step hard decisions) rely on
  // K % 8 == 0 for all legal sizes.
  for (const int k : qpp_block_sizes()) {
    EXPECT_EQ(k % 8, 0) << k;
  }
}

TEST(AllSizes, NoiselessDecodeRoundTripSse) {
  for (const int k : qpp_block_sizes()) {
    const auto bits = random_bits(static_cast<std::size_t>(k),
                                  static_cast<std::uint64_t>(k));
    const auto cw = turbo_encode(bits);
    const auto llr = codeword_to_llr(cw, 80);

    TurboDecodeConfig cfg;
    cfg.isa = IsaLevel::kSse41;
    cfg.max_iterations = 3;
    TurboDecoder dec(k, cfg);
    std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
    dec.decode(llr, out);
    ASSERT_EQ(out, bits) << "K=" << k;
  }
}

TEST(AllSizes, NoiselessDecodeRoundTripWidest) {
  const IsaLevel isa = best_isa();
  if (isa < IsaLevel::kAvx2) GTEST_SKIP() << "no wide ISA";
  // Windowed decoding must handle every K (all are divisible by 4).
  for (const int k : qpp_block_sizes()) {
    const auto bits = random_bits(static_cast<std::size_t>(k),
                                  1000 + static_cast<std::uint64_t>(k));
    const auto cw = turbo_encode(bits);
    const auto llr = codeword_to_llr(cw, 80);

    TurboDecodeConfig cfg;
    cfg.isa = isa;
    cfg.max_iterations = 4;
    TurboDecoder dec(k, cfg);
    std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
    dec.decode(llr, out);
    ASSERT_EQ(out, bits) << "K=" << k << " isa=" << isa_name(isa);
  }
}

TEST(AllSizes, BatchedMatchesSingleEverySize) {
  // Every legal K through the batched-lane decoder, with the batch size
  // cycling 1..capacity so both full and ragged final batches occur.
  // Inputs are noisy enough that iteration counts vary per block; the
  // batched output must be bit-identical to the single-CB SSE decoder
  // (which itself is bit-exact against the scalar reference).
  const IsaLevel isa = best_isa();
  const int cap = TurboBatchDecoder::lane_capacity(isa);

  TurboDecodeConfig scfg;
  scfg.isa = IsaLevel::kSse41;
  scfg.max_iterations = 2;

  TurboBatchConfig bcfg;
  bcfg.isa = isa;
  bcfg.max_iterations = 2;

  int size_index = 0;
  for (const int k : qpp_block_sizes()) {
    const int nb = (size_index++ % cap) + 1;
    const std::size_t nt = static_cast<std::size_t>(k) + kTurboTail;

    std::vector<AlignedVector<std::int16_t>> streams;
    std::vector<TurboBatchInput> inputs;
    std::vector<std::vector<std::uint8_t>> outs(static_cast<std::size_t>(nb));
    std::vector<std::span<std::uint8_t>> out_spans;
    for (int b = 0; b < nb; ++b) {
      const auto bits = random_bits(
          static_cast<std::size_t>(k),
          3000 + static_cast<std::uint64_t>(k) + static_cast<std::uint64_t>(b));
      const auto cw = turbo_encode(bits);
      Xoshiro256 noise(7000 + static_cast<std::uint64_t>(k) * 7 +
                       static_cast<std::uint64_t>(b));
      AlignedVector<std::int16_t> sys(nt), p1(nt), p2(nt);
      const auto jitter = [&]() {
        return static_cast<std::int16_t>(static_cast<int>(noise.next() % 19) -
                                         9);
      };
      for (std::size_t t = 0; t < nt; ++t) {
        sys[t] = static_cast<std::int16_t>((cw.d0[t] ? 6 : -6) + jitter());
        p1[t] = static_cast<std::int16_t>((cw.d1[t] ? 6 : -6) + jitter());
        p2[t] = static_cast<std::int16_t>((cw.d2[t] ? 6 : -6) + jitter());
      }
      streams.push_back(std::move(sys));
      streams.push_back(std::move(p1));
      streams.push_back(std::move(p2));
      outs[static_cast<std::size_t>(b)].resize(static_cast<std::size_t>(k));
    }
    for (int b = 0; b < nb; ++b) {
      inputs.push_back({streams[static_cast<std::size_t>(3 * b)],
                        streams[static_cast<std::size_t>(3 * b + 1)],
                        streams[static_cast<std::size_t>(3 * b + 2)]});
      out_spans.emplace_back(outs[static_cast<std::size_t>(b)]);
    }

    TurboBatchDecoder bdec(k, bcfg);
    std::vector<TurboBatchResult> results(static_cast<std::size_t>(nb));
    bdec.decode_arranged(inputs, out_spans, results);

    TurboDecoder sdec(k, scfg);
    for (int b = 0; b < nb; ++b) {
      std::vector<std::uint8_t> ref(static_cast<std::size_t>(k));
      const auto rr =
          sdec.decode_arranged(inputs[static_cast<std::size_t>(b)].sys,
                               inputs[static_cast<std::size_t>(b)].p1,
                               inputs[static_cast<std::size_t>(b)].p2, ref);
      ASSERT_EQ(outs[static_cast<std::size_t>(b)], ref)
          << "K=" << k << " nb=" << nb << " block " << b;
      ASSERT_EQ(results[static_cast<std::size_t>(b)].iterations, rr.iterations)
          << "K=" << k << " nb=" << nb << " block " << b;
    }
  }
}

TEST(AllSizes, MixedGroupsMatchScalarEverySize) {
  // All 188 K through one K-agnostic batched decoder per tier, scalar
  // included, in mixed lane groups: sizes are taken from both ends of
  // the table in turn (40, 6144, 48, 6080, ...), so every K decodes
  // right-aligned beside much longer and much shorter blocks. Each block
  // must match the scalar single-block reference exactly.
  const auto sizes = qpp_block_sizes();
  std::vector<int> order;
  for (std::size_t lo = 0, hi = sizes.size(); lo < hi;) {
    order.push_back(sizes[lo++]);
    if (lo < hi) order.push_back(sizes[--hi]);
  }
  struct Block {
    AlignedVector<std::int16_t> sys, p1, p2;
    std::vector<std::uint8_t> ref;
    int iterations = 0;
  };
  TurboDecodeConfig scfg;
  scfg.isa = IsaLevel::kScalar;
  scfg.simd = false;
  scfg.max_iterations = 2;
  std::vector<Block> blocks;
  for (const int k : order) {
    const std::size_t nt = static_cast<std::size_t>(k) + kTurboTail;
    const auto cw = turbo_encode(random_bits(
        static_cast<std::size_t>(k), 5000 + static_cast<std::uint64_t>(k)));
    Xoshiro256 noise(9000 + static_cast<std::uint64_t>(k));
    Block b;
    b.sys.resize(nt);
    b.p1.resize(nt);
    b.p2.resize(nt);
    const auto jitter = [&]() {
      return static_cast<std::int16_t>(static_cast<int>(noise.next() % 19) - 9);
    };
    for (std::size_t t = 0; t < nt; ++t) {
      b.sys[t] = static_cast<std::int16_t>((cw.d0[t] ? 6 : -6) + jitter());
      b.p1[t] = static_cast<std::int16_t>((cw.d1[t] ? 6 : -6) + jitter());
      b.p2[t] = static_cast<std::int16_t>((cw.d2[t] ? 6 : -6) + jitter());
    }
    b.ref.resize(static_cast<std::size_t>(k));
    TurboDecoder sdec(k, scfg);
    b.iterations = sdec.decode_arranged(b.sys, b.p1, b.p2, b.ref).iterations;
    blocks.push_back(std::move(b));
  }

  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) continue;
    TurboBatchConfig bcfg;
    bcfg.isa = isa;
    bcfg.max_iterations = 2;
    TurboBatchDecoder bdec(6144, bcfg);
    const std::size_t cap = static_cast<std::size_t>(bdec.capacity());
    for (std::size_t g = 0; g < blocks.size(); g += cap) {
      const std::size_t nb = std::min(cap, blocks.size() - g);
      std::vector<TurboBatchInput> inputs;
      std::vector<std::vector<std::uint8_t>> outs(nb);
      std::vector<std::span<std::uint8_t>> out_spans;
      for (std::size_t b = 0; b < nb; ++b) {
        const Block& blk = blocks[g + b];
        inputs.push_back({blk.sys, blk.p1, blk.p2});
        outs[b].resize(blk.ref.size());
        out_spans.emplace_back(outs[b]);
      }
      std::vector<TurboBatchResult> results(nb);
      bdec.decode_arranged(inputs, out_spans, results);
      for (std::size_t b = 0; b < nb; ++b) {
        ASSERT_EQ(outs[b], blocks[g + b].ref)
            << "K=" << order[g + b] << " isa=" << isa_name(isa);
        ASSERT_EQ(results[b].iterations, blocks[g + b].iterations)
            << "K=" << order[g + b] << " isa=" << isa_name(isa);
      }
    }
  }
}

TEST(AllSizes, RateMatchFullBufferRoundTrip) {
  for (const int k : qpp_block_sizes()) {
    const auto bits = random_bits(static_cast<std::size_t>(k),
                                  2000 + static_cast<std::uint64_t>(k));
    const auto cw = turbo_encode(bits);
    const RateMatcher rm(k);
    ASSERT_EQ(rm.usable_size(), 3 * (k + 4)) << k;
    const auto tx = rm.match(cw, rm.usable_size(), 0);

    AlignedVector<std::int16_t> llr(tx.size());
    for (std::size_t i = 0; i < tx.size(); ++i) llr[i] = tx[i] ? 4 : -4;
    const auto triples = rm.dematch(llr, 0);
    const std::uint8_t* streams[3] = {cw.d0.data(), cw.d1.data(),
                                      cw.d2.data()};
    for (std::size_t i = 0; i < triples.size(); ++i) {
      ASSERT_EQ(triples[i] > 0, streams[i % 3][i / 3] == 1)
          << "K=" << k << " i=" << i;
    }
  }
}

TEST(AllSizes, EncoderTailsTerminateBothConstituents) {
  // Termination must drive both RSC encoders to state 0 regardless of
  // content — checked indirectly: re-encoding the all-ones block of
  // every size must be deterministic and the tails self-consistent
  // (systematic tail bits reproduce the parity recursion).
  for (const int k : qpp_block_sizes()) {
    const std::vector<std::uint8_t> bits(static_cast<std::size_t>(k), 1);
    const auto cw = turbo_encode(bits);
    ASSERT_EQ(cw.d0.size(), static_cast<std::size_t>(k + 4)) << k;
    // Replay encoder 1 from the tails: x_K, x_K+1, x_K+2 must drain the
    // final state to zero through rsc_step.
    int state = 0;
    for (int i = 0; i < k; ++i) state = rsc_step(state, bits[static_cast<std::size_t>(i)]).next_state;
    const std::uint8_t xt[3] = {cw.d0[static_cast<std::size_t>(k)],
                                cw.d2[static_cast<std::size_t>(k)],
                                cw.d1[static_cast<std::size_t>(k + 1)]};
    const std::uint8_t zt[3] = {cw.d1[static_cast<std::size_t>(k)],
                                cw.d0[static_cast<std::size_t>(k + 1)],
                                cw.d2[static_cast<std::size_t>(k + 1)]};
    for (int t = 0; t < 3; ++t) {
      const auto [ns, p] = rsc_step(state, xt[t]);
      EXPECT_EQ(p, zt[t]) << "K=" << k << " t=" << t;
      state = ns;
    }
    EXPECT_EQ(state, 0) << "K=" << k;
  }
}

}  // namespace
}  // namespace vran::phy
