// Turbo codec tests: interleaver algebra, encoder trellis properties,
// decoder round trips (noiseless + AWGN-ish perturbation), SIMD
// equivalence, and failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>
#include <span>

#include "common/rng.h"
#include "phy/turbo/qpp_interleaver.h"
#include "phy/turbo/turbo_decoder.h"
#include "phy/turbo/turbo_encoder.h"
#include "phy/turbo/turbo_trellis.h"

namespace vran::phy {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> b(n);
  Xoshiro256 rng(seed);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next() & 1);
  return b;
}

/// Map codeword bits to strong LLRs (+A for 1, -A for 0) in the decoder's
/// triple-interleaved input layout.
AlignedVector<std::int16_t> codeword_to_llr(const TurboCodeword& cw,
                                            std::int16_t amp) {
  const std::size_t n = cw.d0.size();
  AlignedVector<std::int16_t> llr(3 * n);
  for (std::size_t k = 0; k < n; ++k) {
    llr[3 * k] = cw.d0[k] ? amp : static_cast<std::int16_t>(-amp);
    llr[3 * k + 1] = cw.d1[k] ? amp : static_cast<std::int16_t>(-amp);
    llr[3 * k + 2] = cw.d2[k] ? amp : static_cast<std::int16_t>(-amp);
  }
  return llr;
}

// ---------------------------------------------------------------------------
// QPP interleaver.
// ---------------------------------------------------------------------------

TEST(Qpp, TableHas188AscendingSizes) {
  const auto sizes = qpp_block_sizes();
  ASSERT_EQ(sizes.size(), 188u);
  EXPECT_EQ(sizes.front(), 40);
  EXPECT_EQ(sizes.back(), 6144);
  EXPECT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
  // The byte-trellis encoder steps whole bytes and has no ragged tail.
  for (const int k : sizes) EXPECT_EQ(k % 8, 0) << k;
}

TEST(Qpp, EverySizeYieldsABijection) {
  for (const int k : qpp_block_sizes()) {
    const QppInterleaver il(k);
    std::vector<bool> hit(static_cast<std::size_t>(k), false);
    for (int i = 0; i < k; ++i) {
      const int p = il.pi(i);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, k);
      ASSERT_FALSE(hit[static_cast<std::size_t>(p)]) << "K=" << k;
      hit[static_cast<std::size_t>(p)] = true;
    }
  }
}

TEST(Qpp, F1AlwaysOdd) {
  for (const int k : qpp_block_sizes()) {
    EXPECT_EQ(qpp_coefficients(k).f1 % 2, 1) << k;
  }
}

TEST(Qpp, MatchesClosedForm) {
  for (const int k : {40, 512, 1504, 6144}) {
    const auto [f1, f2] = qpp_coefficients(k);
    const QppInterleaver il(k);
    for (int i = 0; i < k; ++i) {
      const long long want =
          (static_cast<long long>(f1) * i +
           static_cast<long long>(f2) * i % k * i) % k;
      EXPECT_EQ(il.pi(i), static_cast<int>(want)) << "K=" << k << " i=" << i;
    }
  }
}

TEST(Qpp, InverseIsConsistent) {
  const QppInterleaver il(1024);
  for (int i = 0; i < 1024; ++i) {
    EXPECT_EQ(il.pi_inverse(il.pi(i)), i);
  }
}

TEST(Qpp, InterleaveDeinterleaveRoundTrip) {
  const int k = 256;
  const QppInterleaver il(k);
  const auto data = random_bits(static_cast<std::size_t>(k), 9);
  std::vector<std::uint8_t> tmp(data.size()), back(data.size());
  il.interleave(std::span<const std::uint8_t>(data),
                std::span<std::uint8_t>(tmp));
  il.deinterleave(std::span<const std::uint8_t>(tmp),
                  std::span<std::uint8_t>(back));
  EXPECT_EQ(back, data);
}

TEST(Qpp, RejectsIllegalSizes) {
  EXPECT_THROW(qpp_coefficients(41), std::invalid_argument);
  EXPECT_THROW(QppInterleaver(6150), std::invalid_argument);
  EXPECT_EQ(qpp_size_at_least(41), 48);
  EXPECT_EQ(qpp_size_at_least(6144), 6144);
  EXPECT_THROW(qpp_size_at_least(6145), std::out_of_range);
}

// ---------------------------------------------------------------------------
// Encoder.
// ---------------------------------------------------------------------------

TEST(TurboEncoder, OutputsAreKPlus4) {
  const auto bits = random_bits(40, 1);
  const auto cw = turbo_encode(bits);
  EXPECT_EQ(cw.d0.size(), 44u);
  EXPECT_EQ(cw.d1.size(), 44u);
  EXPECT_EQ(cw.d2.size(), 44u);
}

TEST(TurboEncoder, SystematicStreamEchoesInput) {
  const auto bits = random_bits(104, 2);
  const auto cw = turbo_encode(bits);
  EXPECT_TRUE(std::equal(bits.begin(), bits.end(), cw.d0.begin()));
}

TEST(TurboEncoder, RejectsIllegalK) {
  EXPECT_THROW(turbo_encode(std::vector<std::uint8_t>(41, 0)),
               std::invalid_argument);
}

TEST(TurboEncoder, AllZeroInputGivesAllZeroParity) {
  // RSC with zero input stays in state 0 -> zero parity and zero tails.
  const std::vector<std::uint8_t> bits(64, 0);
  const auto cw = turbo_encode(bits);
  EXPECT_TRUE(std::all_of(cw.d1.begin(), cw.d1.end(),
                          [](std::uint8_t b) { return b == 0; }));
  EXPECT_TRUE(std::all_of(cw.d2.begin(), cw.d2.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

/// Bit-serial reference encoder: one rsc_step per input bit, the second
/// constituent fed through a QppInterleaver, then the 36.212 tail
/// multiplexing.
TurboCodeword reference_encode(std::span<const std::uint8_t> bits) {
  struct Run {
    std::vector<std::uint8_t> parity;
    std::uint8_t xt[3], zt[3];
  };
  const auto run = [](std::span<const std::uint8_t> in) {
    Run r{};
    int state = 0;
    for (const std::uint8_t u : in) {
      const auto [ns, p] = rsc_step(state, u);
      r.parity.push_back(static_cast<std::uint8_t>(p));
      state = ns;
    }
    for (int t = 0; t < 3; ++t) {
      const int u = ((state >> 1) ^ state) & 1;
      const auto [ns, p] = rsc_step(state, u);
      r.xt[t] = static_cast<std::uint8_t>(u);
      r.zt[t] = static_cast<std::uint8_t>(p);
      state = ns;
    }
    return r;
  };
  const QppInterleaver il(static_cast<int>(bits.size()));
  std::vector<std::uint8_t> interleaved(bits.size());
  il.interleave(bits, std::span<std::uint8_t>(interleaved));
  const Run e1 = run(bits);
  const Run e2 = run(interleaved);
  TurboCodeword cw;
  cw.d0.assign(bits.begin(), bits.end());
  cw.d1 = e1.parity;
  cw.d2 = e2.parity;
  cw.d0.insert(cw.d0.end(), {e1.xt[0], e1.zt[1], e2.xt[0], e2.zt[1]});
  cw.d1.insert(cw.d1.end(), {e1.zt[0], e1.xt[2], e2.zt[0], e2.xt[2]});
  cw.d2.insert(cw.d2.end(), {e1.xt[1], e1.zt[2], e2.xt[1], e2.zt[2]});
  return cw;
}

TEST(TurboEncoder, MatchesBitSerialReferenceAtEverySize) {
  for (const int k : qpp_block_sizes()) {
    const auto n = static_cast<std::size_t>(k);
    std::vector<std::uint8_t> alternating(n), last_only(n, 0);
    for (std::size_t i = 0; i < n; ++i) alternating[i] = i & 1u;
    last_only.back() = 1;
    const std::vector<std::uint8_t> inputs[] = {
        random_bits(n, static_cast<std::uint64_t>(k)),
        std::vector<std::uint8_t>(n, 1), alternating, last_only};
    const TurboEncoder enc(k);
    for (std::size_t c = 0; c < std::size(inputs); ++c) {
      const auto got = enc.encode(inputs[c]);
      const auto want = reference_encode(inputs[c]);
      EXPECT_EQ(got.d0, want.d0) << "K " << k << " input " << c;
      EXPECT_EQ(got.d1, want.d1) << "K " << k << " input " << c;
      EXPECT_EQ(got.d2, want.d2) << "K " << k << " input " << c;
    }
  }
}

TEST(TurboEncoder, TrellisTablesConsistentWithRscStep) {
  using namespace turbo_internal;
  for (int s = 0; s < kStates; ++s) {
    for (int u = 0; u < 2; ++u) {
      const auto [ns, p] = rsc_step(s, u);
      EXPECT_EQ(kTrellis.succ[u][static_cast<std::size_t>(s)], ns);
      EXPECT_EQ(kTrellis.out_p[u][static_cast<std::size_t>(s)], p);
    }
  }
  // Every state has exactly two predecessors registered.
  int seen[kStates] = {0};
  for (int b = 0; b < 2; ++b) {
    for (int ns = 0; ns < kStates; ++ns) {
      const int s = kTrellis.pred[b][static_cast<std::size_t>(ns)];
      const int u = kTrellis.in_u[b][static_cast<std::size_t>(ns)];
      EXPECT_EQ(kTrellis.succ[u][static_cast<std::size_t>(s)], ns);
      ++seen[ns];
    }
  }
  for (int ns = 0; ns < kStates; ++ns) EXPECT_EQ(seen[ns], 2);
}

// ---------------------------------------------------------------------------
// Decoder round trips.
// ---------------------------------------------------------------------------

class TurboRoundTrip
    : public testing::TestWithParam<std::tuple<int, IsaLevel, bool>> {};

TEST_P(TurboRoundTrip, NoiselessDecodesExactly) {
  const int k = std::get<0>(GetParam());
  const IsaLevel isa = std::get<1>(GetParam());
  const bool simd = std::get<2>(GetParam());
  if (simd && isa > best_isa()) GTEST_SKIP();

  const auto bits = random_bits(static_cast<std::size_t>(k), 100 + k);
  const auto cw = turbo_encode(bits);
  const auto llr = codeword_to_llr(cw, 256);

  TurboDecodeConfig cfg;
  cfg.isa = isa;
  cfg.simd = simd;
  cfg.max_iterations = 4;
  TurboDecoder dec(k, cfg);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
  const auto res = dec.decode(llr, out);
  EXPECT_EQ(out, bits) << "K=" << k;
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TurboRoundTrip,
    testing::Combine(testing::Values(40, 104, 512, 1504, 6144),
                     testing::Values(IsaLevel::kScalar, IsaLevel::kSse41,
                                     IsaLevel::kAvx2, IsaLevel::kAvx512),
                     testing::Values(false, true)),
    [](const testing::TestParamInfo<std::tuple<int, IsaLevel, bool>>& i) {
      return "K" + std::to_string(std::get<0>(i.param)) + "_" +
             isa_name(std::get<1>(i.param)) +
             (std::get<2>(i.param) ? "_simd" : "_scalar");
    });

TEST(TurboDecoder, CorrectsPerturbedLlrs) {
  // Flip-strength noise on ~8% of the LLRs; the code must still decode.
  const int k = 1024;
  const auto bits = random_bits(static_cast<std::size_t>(k), 42);
  const auto cw = turbo_encode(bits);
  auto llr = codeword_to_llr(cw, 64);
  Xoshiro256 rng(7);
  for (auto& v : llr) {
    if (rng.uniform() < 0.08) v = static_cast<std::int16_t>(-v);
    v = static_cast<std::int16_t>(v + int(rng.bounded(33)) - 16);
  }
  TurboDecodeConfig cfg;
  cfg.isa = IsaLevel::kSse41;
  cfg.max_iterations = 8;
  TurboDecoder dec(k, cfg);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
  dec.decode(llr, out);
  EXPECT_EQ(out, bits);
}

TEST(TurboDecoder, SseBitExactWithScalarReference) {
  using namespace turbo_internal;
  const int k = 512;
  Xoshiro256 rng(11);
  AlignedVector<std::int16_t> sys(static_cast<std::size_t>(k)),
      par(static_cast<std::size_t>(k)), apr(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    sys[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
        int(rng.bounded(512)) - 256);
    par[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
        int(rng.bounded(512)) - 256);
    apr[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(
        int(rng.bounded(256)) - 128);
  }
  const std::int16_t st[3] = {100, -50, 25};
  const std::int16_t pt[3] = {-100, 50, -25};

  AlignedVector<std::int16_t> ext_s(static_cast<std::size_t>(k)),
      lall_s(static_cast<std::size_t>(k)), ext_v(static_cast<std::size_t>(k)),
      lall_v(static_cast<std::size_t>(k));
  AlignedVector<std::int16_t> ws(static_cast<std::size_t>(k) * 32 + 64);
  AlignedVector<std::int16_t> gs(static_cast<std::size_t>(k) * 3);

  map_decode_scalar(sys, par, apr, st, pt, ext_s, lall_s, ws.data(),
                    gs.data());
  map_decode_simd(IsaLevel::kSse41, sys, par, apr, st, pt, ext_v, lall_v,
                  ws.data(), gs.data());
  for (int i = 0; i < k; ++i) {
    ASSERT_EQ(ext_v[static_cast<std::size_t>(i)],
              ext_s[static_cast<std::size_t>(i)])
        << i;
    ASSERT_EQ(lall_v[static_cast<std::size_t>(i)],
              lall_s[static_cast<std::size_t>(i)])
        << i;
  }
}

TEST(TurboDecoder, CrcEarlyStopReportsOk) {
  const int k = 256;
  auto bits = random_bits(232, 5);
  crc_attach(bits, CrcType::k24B);
  ASSERT_EQ(bits.size(), 256u);
  const auto cw = turbo_encode(bits);
  const auto llr = codeword_to_llr(cw, 128);

  TurboDecodeConfig cfg;
  cfg.crc = CrcType::k24B;
  cfg.isa = IsaLevel::kSse41;
  TurboDecoder dec(k, cfg);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
  const auto res = dec.decode(llr, out);
  EXPECT_TRUE(res.crc_ok);
  EXPECT_EQ(res.iterations, 1);  // noiseless: first iteration passes CRC
}

TEST(TurboDecoder, GarbageInputFailsCrc) {
  const int k = 256;
  TurboDecodeConfig cfg;
  cfg.crc = CrcType::k24B;
  cfg.isa = IsaLevel::kSse41;
  cfg.max_iterations = 3;
  TurboDecoder dec(k, cfg);
  AlignedVector<std::int16_t> llr(3 * (static_cast<std::size_t>(k) + 4));
  Xoshiro256 rng(13);
  for (auto& v : llr) v = static_cast<std::int16_t>(int(rng.bounded(200)) - 100);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
  const auto res = dec.decode(llr, out);
  EXPECT_FALSE(res.crc_ok);
}

TEST(TurboDecoder, ArrangementMethodDoesNotChangeResult) {
  const int k = 512;
  const auto bits = random_bits(static_cast<std::size_t>(k), 21);
  const auto cw = turbo_encode(bits);
  auto llr = codeword_to_llr(cw, 90);
  Xoshiro256 rng(3);
  for (auto& v : llr) {
    v = static_cast<std::int16_t>(v + int(rng.bounded(41)) - 20);
  }

  std::vector<std::uint8_t> ref;
  for (auto method : {arrange::Method::kScalar, arrange::Method::kExtract,
                      arrange::Method::kApcm}) {
    TurboDecodeConfig cfg;
    cfg.arrange_method = method;
    cfg.isa = IsaLevel::kSse41;
    TurboDecoder dec(k, cfg);
    std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
    dec.decode(llr, out);
    if (ref.empty()) {
      ref = out;
    } else {
      EXPECT_EQ(out, ref) << arrange::method_name(method);
    }
  }
}

TEST(TurboDecoder, RejectsBadInputSizes) {
  TurboDecoder dec(40);
  AlignedVector<std::int16_t> llr(100);  // not 3*44
  std::vector<std::uint8_t> out(40);
  EXPECT_THROW(dec.decode(llr, out), std::invalid_argument);
  AlignedVector<std::int16_t> ok(3 * 44);
  std::vector<std::uint8_t> small(39);
  EXPECT_THROW(dec.decode(ok, small), std::invalid_argument);
}

TEST(TurboDecoder, ReportsPhaseTimings) {
  const int k = 1024;
  const auto bits = random_bits(static_cast<std::size_t>(k), 8);
  const auto cw = turbo_encode(bits);
  const auto llr = codeword_to_llr(cw, 100);
  TurboDecoder dec(k);
  std::vector<std::uint8_t> out(static_cast<std::size_t>(k));
  const auto res = dec.decode(llr, out);
  EXPECT_GT(res.arrange_seconds, 0.0);
  EXPECT_GT(res.compute_seconds, 0.0);
}

}  // namespace
}  // namespace vran::phy
