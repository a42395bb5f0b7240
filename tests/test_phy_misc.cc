// Tests for scrambler, modulation, FFT/OFDM, channel, DCI and
// segmentation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>

#include "common/rng.h"
#include "phy/channel/channel.h"
#include "phy/dci/dci.h"
#include "phy/modulation/modulation.h"
#include "phy/ofdm/fft.h"
#include "phy/ofdm/ofdm.h"
#include "phy/scramble/scrambler.h"
#include "phy/segmentation/segmentation.h"
#include "phy/turbo/qpp_interleaver.h"
#include "guard_page.h"

namespace vran::phy {
namespace {

std::vector<std::uint8_t> random_bits(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> b(n);
  Xoshiro256 rng(seed);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next() & 1);
  return b;
}

// ---------------------------------------------------------------------------
// Scrambler.
// ---------------------------------------------------------------------------

TEST(Scrambler, SequenceIsDeterministic) {
  const auto a = gold_sequence(12345, 1000);
  const auto b = gold_sequence(12345, 1000);
  EXPECT_EQ(a, b);
  const auto c = gold_sequence(12346, 1000);
  EXPECT_NE(a, c);
}

TEST(Scrambler, SequenceIsBalanced) {
  const auto s = gold_sequence(0x5A5A5, 100000);
  const auto ones = std::accumulate(s.begin(), s.end(), 0);
  EXPECT_NEAR(double(ones) / double(s.size()), 0.5, 0.01);
}

TEST(Scrambler, StreamingMatchesBatch) {
  GoldSequence g(777);
  const auto batch = gold_sequence(777, 100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(g.next(), batch[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(Scrambler, ScrambleIsInvolution) {
  auto bits = random_bits(501, 2);
  const auto orig = bits;
  scramble_bits(bits, 99);
  EXPECT_NE(bits, orig);
  scramble_bits(bits, 99);
  EXPECT_EQ(bits, orig);
}

TEST(Scrambler, LlrDescrambleMatchesBitScramble) {
  // Descrambling the LLRs of scrambled bits must recover the original
  // bits' soft signs.
  auto bits = random_bits(300, 3);
  const auto orig = bits;
  scramble_bits(bits, 4242);
  std::vector<std::int16_t> llr(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) llr[i] = bits[i] ? 100 : -100;
  descramble_llr(llr, 4242);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(llr[i] > 0, orig[i] == 1) << i;
  }
}

TEST(Scrambler, CInitPacking) {
  EXPECT_EQ(pusch_c_init(0, 0, 0, 0), 0u);
  EXPECT_EQ(pusch_c_init(1, 0, 0, 0), 1u << 14);
  EXPECT_EQ(pusch_c_init(0, 1, 0, 0), 1u << 13);
  EXPECT_EQ(pusch_c_init(0, 0, 2, 0), 1u << 9);
  EXPECT_EQ(pusch_c_init(0, 0, 0, 3), 3u);
}

// ---------------------------------------------------------------------------
// Modulation.
// ---------------------------------------------------------------------------

TEST(Modulation, ConstellationSizesAndEnergy) {
  for (auto m : {Modulation::kQpsk, Modulation::k16Qam, Modulation::k64Qam}) {
    const auto pts = constellation(m);
    EXPECT_EQ(pts.size(), std::size_t{1} << bits_per_symbol(m));
    double e = 0;
    for (const auto& p : pts) {
      e += double(p.i) * p.i + double(p.q) * p.q;
    }
    e /= double(pts.size()) * kIqScale * kIqScale;
    EXPECT_NEAR(e, 1.0, 0.01) << modulation_name(m);  // unit average energy
  }
}

TEST(Modulation, MapDemapHardRoundTrip) {
  for (auto m : {Modulation::kQpsk, Modulation::k16Qam, Modulation::k64Qam}) {
    const auto bits = random_bits(
        120 * static_cast<std::size_t>(bits_per_symbol(m)), 11);
    const auto sym = modulate(bits, m);
    const auto back = demodulate_hard(sym, m);
    EXPECT_EQ(back, bits) << modulation_name(m);
  }
}

TEST(Modulation, SoftLlrSignsMatchBitsNoiseless) {
  for (auto m : {Modulation::kQpsk, Modulation::k16Qam, Modulation::k64Qam}) {
    const auto bits = random_bits(
        60 * static_cast<std::size_t>(bits_per_symbol(m)), 13);
    const auto sym = modulate(bits, m);
    const auto llr = demodulate_llr(sym, m, 0.05 * kIqScale * kIqScale);
    ASSERT_EQ(llr.size(), bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      EXPECT_EQ(llr[i] > 0, bits[i] == 1) << modulation_name(m) << " " << i;
    }
  }
}

TEST(Modulation, MatchesPerBitReferenceAtEverySymbolCount) {
  // Covers inputs shorter than the 8-byte window, the windowed symbols
  // and the per-bit tail. Input bytes carry junk above bit 0, which the
  // mapper must ignore, and end at a guard page, which it must not read.
  Xoshiro256 rng(90);
  for (auto m : {Modulation::kQpsk, Modulation::k16Qam, Modulation::k64Qam}) {
    const auto bps = static_cast<std::size_t>(bits_per_symbol(m));
    const auto table = constellation(m);
    for (std::size_t n_sym = 1; n_sym <= 40; ++n_sym) {
      test::GuardedBuffer<std::uint8_t> in(n_sym * bps);
      for (auto& b : in.span()) b = static_cast<std::uint8_t>(rng.next());
      const auto sym = modulate(in.span(), m);
      ASSERT_EQ(sym.size(), n_sym);
      for (std::size_t s = 0; s < n_sym; ++s) {
        std::size_t g = 0;
        for (std::size_t b = 0; b < bps; ++b) {
          g = (g << 1) | (in.span()[s * bps + b] & 1u);
        }
        EXPECT_EQ(sym[s], table[g])
            << modulation_name(m) << " symbols " << n_sym << " at " << s;
      }
    }
  }
}

TEST(Modulation, RejectsBadInput) {
  EXPECT_THROW(modulate(std::vector<std::uint8_t>(3, 0), Modulation::kQpsk),
               std::invalid_argument);
  std::vector<IqSample> sym(4);
  EXPECT_THROW(demodulate_llr(sym, Modulation::kQpsk, 0.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// FFT / OFDM.
// ---------------------------------------------------------------------------

TEST(Fft, MatchesReferenceDft) {
  Xoshiro256 rng(17);
  for (std::size_t n : {8u, 64u, 512u}) {
    std::vector<Cf> x(n);
    for (auto& v : x) {
      v = Cf(float(rng.uniform() - 0.5), float(rng.uniform() - 0.5));
    }
    auto fast = x;
    fft_forward(fast);
    const auto ref = dft_reference(x, false);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(fast[i].real(), ref[i].real(), 1e-2) << n << " " << i;
      EXPECT_NEAR(fast[i].imag(), ref[i].imag(), 1e-2);
    }
  }
}

TEST(Fft, ForwardInverseRoundTrip) {
  Xoshiro256 rng(19);
  std::vector<Cf> x(1024);
  for (auto& v : x) {
    v = Cf(float(rng.uniform() - 0.5), float(rng.uniform() - 0.5));
  }
  auto y = x;
  fft_forward(y);
  fft_inverse(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-4);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-4);
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Cf> x(256, Cf{0, 0});
  x[0] = Cf{1, 0};
  fft_forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0f, 1e-4);
    EXPECT_NEAR(v.imag(), 0.0f, 1e-4);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(48), std::invalid_argument);
}

TEST(Ofdm, SymbolRoundTrip) {
  OfdmConfig cfg;  // 512-FFT, 300 subcarriers, CP 36
  OfdmModulator mod(cfg);
  Xoshiro256 rng(23);
  std::vector<IqSample> res(300);
  for (auto& r : res) {
    r.i = static_cast<std::int16_t>(int(rng.bounded(4000)) - 2000);
    r.q = static_cast<std::int16_t>(int(rng.bounded(4000)) - 2000);
  }
  const auto time = mod.modulate_symbol(res);
  EXPECT_EQ(time.size(), 548u);
  const auto back = mod.demodulate_symbol(time);
  ASSERT_EQ(back.size(), res.size());
  for (std::size_t i = 0; i < res.size(); ++i) {
    EXPECT_NEAR(back[i].i, res[i].i, 2) << i;
    EXPECT_NEAR(back[i].q, res[i].q, 2) << i;
  }
}

TEST(Ofdm, MultiSymbolRoundTripWithPadding) {
  OfdmConfig cfg;
  OfdmModulator mod(cfg);
  Xoshiro256 rng(29);
  std::vector<IqSample> res(750);  // 2.5 symbols
  for (auto& r : res) {
    r.i = static_cast<std::int16_t>(int(rng.bounded(2000)) - 1000);
    r.q = static_cast<std::int16_t>(int(rng.bounded(2000)) - 1000);
  }
  const auto time = mod.modulate(res);
  EXPECT_EQ(time.size(), 3u * 548u);
  const auto back = mod.demodulate(time, res.size());
  ASSERT_EQ(back.size(), res.size());
  for (std::size_t i = 0; i < res.size(); ++i) {
    EXPECT_NEAR(back[i].i, res[i].i, 2) << i;
  }
}

TEST(Ofdm, CyclicPrefixIsSuffixCopy) {
  OfdmConfig cfg;
  OfdmModulator mod(cfg);
  std::vector<IqSample> res(300, IqSample{1000, -500});
  const auto time = mod.modulate_symbol(res);
  for (int i = 0; i < cfg.cp_len; ++i) {
    EXPECT_EQ(time[static_cast<std::size_t>(i)],
              time[static_cast<std::size_t>(cfg.nfft + i)]);
  }
}

TEST(Ofdm, ValidatesConfig) {
  OfdmConfig bad;
  bad.used_subcarriers = 301;
  EXPECT_THROW(OfdmModulator{bad}, std::invalid_argument);
  OfdmConfig bad2;
  bad2.cp_len = 512;
  EXPECT_THROW(OfdmModulator{bad2}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Channel.
// ---------------------------------------------------------------------------

TEST(Channel, NoisePowerTracksSnr) {
  AwgnChannel ch(10.0, 7);
  std::vector<Cf> x(200000, Cf{0, 0});
  ch.apply(std::span<Cf>(x));
  double p = 0;
  for (const auto& v : x) p += v.real() * v.real() + v.imag() * v.imag();
  p /= double(x.size());
  EXPECT_NEAR(p, 0.1, 0.005);  // N0 = 10^-1
}

TEST(Channel, QpskBerMatchesTheoryAt4dB) {
  // BER for QPSK (Eb/N0 = Es/N0 - 3dB): Q(sqrt(2*Eb/N0)).
  const double snr_db = 4.0;
  AwgnChannel ch(snr_db, 11);
  const auto bits = random_bits(200000, 31);
  auto sym = modulate(bits, Modulation::kQpsk);
  ch.apply(std::span<IqSample>(sym));
  const auto rx = demodulate_hard(sym, Modulation::kQpsk);
  ErrorStats st;
  st.add_block(bits, rx);
  const double ebn0 = std::pow(10.0, (snr_db - 3.0103) / 10.0);
  const double theory = 0.5 * std::erfc(std::sqrt(ebn0));
  EXPECT_NEAR(st.ber(), theory, theory * 0.2);
}

TEST(Channel, ErrorStatsCounts) {
  ErrorStats st;
  const std::vector<std::uint8_t> a = {0, 1, 0, 1};
  const std::vector<std::uint8_t> b = {0, 1, 1, 1};
  st.add_block(a, b);
  st.add_block(a, a);
  EXPECT_EQ(st.bits, 8u);
  EXPECT_EQ(st.bit_errors, 1u);
  EXPECT_EQ(st.blocks, 2u);
  EXPECT_EQ(st.block_errors, 1u);
  EXPECT_DOUBLE_EQ(st.ber(), 0.125);
  EXPECT_DOUBLE_EQ(st.bler(), 0.5);
}

// ---------------------------------------------------------------------------
// DCI.
// ---------------------------------------------------------------------------

TEST(Dci, PackUnpackRoundTrip) {
  DciPayload p;
  p.rb_start = 17;
  p.rb_len = 25;
  p.mcs = 19;
  p.harq_id = 5;
  p.ndi = 1;
  p.rv = 2;
  p.tpc = 3;
  const auto bits = dci_pack(p);
  EXPECT_EQ(bits.size(), static_cast<std::size_t>(kDciPayloadBits));
  EXPECT_EQ(dci_unpack(bits), p);
}

TEST(Dci, TbccEncodeDecodeNoiseless) {
  const auto bits = random_bits(43, 41);
  const auto coded = tbcc_encode(bits);
  ASSERT_EQ(coded.size(), 3 * bits.size());
  std::vector<std::int16_t> llr(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) llr[i] = coded[i] ? 70 : -70;
  const auto dec = tbcc_decode(llr);
  EXPECT_EQ(dec, bits);
}

TEST(Dci, TbccSurvivesModerateNoise) {
  Xoshiro256 rng(43);
  const auto bits = random_bits(43, 44);
  const auto coded = tbcc_encode(bits);
  std::vector<std::int16_t> llr(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    int v = coded[i] ? 60 : -60;
    v += int(rng.bounded(61)) - 30;
    if (rng.uniform() < 0.05) v = -v;
    llr[i] = static_cast<std::int16_t>(v);
  }
  EXPECT_EQ(tbcc_decode(llr), bits);
}

TEST(Dci, EndToEndWithRepetition) {
  DciPayload p;
  p.rb_start = 3;
  p.rb_len = 20;
  p.mcs = 11;
  const std::uint16_t rnti = 0x1234;
  const int e = 288;  // > coded bits -> repetition
  const auto tx = dci_encode(p, rnti, e);
  ASSERT_EQ(tx.size(), static_cast<std::size_t>(e));
  std::vector<std::int16_t> llr(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) llr[i] = tx[i] ? 50 : -50;
  const auto got = dci_decode(llr, rnti);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, p);
}

TEST(Dci, WrongRntiRejected) {
  DciPayload p;
  p.mcs = 9;
  const auto tx = dci_encode(p, 0x00AA, 200);
  std::vector<std::int16_t> llr(tx.size());
  for (std::size_t i = 0; i < tx.size(); ++i) llr[i] = tx[i] ? 50 : -50;
  EXPECT_FALSE(dci_decode(llr, 0x00AB).has_value());
}

TEST(Dci, GarbageRejected) {
  Xoshiro256 rng(47);
  std::vector<std::int16_t> llr(258);
  for (auto& v : llr) v = static_cast<std::int16_t>(int(rng.bounded(100)) - 50);
  EXPECT_FALSE(dci_decode(llr, 0x1111).has_value());
}

TEST(Dci, TbccRejectsBadSizes) {
  EXPECT_THROW(tbcc_encode(std::vector<std::uint8_t>(5, 0)),
               std::invalid_argument);
  EXPECT_THROW(tbcc_decode(std::vector<std::int16_t>(10, 0)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Segmentation.
// ---------------------------------------------------------------------------

TEST(Segmentation, SmallBlockSingleSegment) {
  const auto p = make_segmentation_plan(100);
  EXPECT_EQ(p.c, 1);
  EXPECT_EQ(p.k_plus, 104);
  EXPECT_EQ(p.f, 4);
  EXPECT_EQ(p.payload_bits(0), 100);
}

TEST(Segmentation, ExactSizeNoFiller) {
  const auto p = make_segmentation_plan(512);
  EXPECT_EQ(p.c, 1);
  EXPECT_EQ(p.k_plus, 512);
  EXPECT_EQ(p.f, 0);
}

TEST(Segmentation, LargeBlockSplits) {
  const auto p = make_segmentation_plan(10000);
  EXPECT_EQ(p.c, 2);
  EXPECT_EQ(p.c_plus * p.k_plus + p.c_minus * p.k_minus,
            10000 + p.c * 24 + p.f);
  int total_payload = 0;
  for (int i = 0; i < p.c; ++i) total_payload += p.payload_bits(i);
  EXPECT_EQ(total_payload, 10000);
}

TEST(Segmentation, PlanInvariantsAcrossSizes) {
  for (int b : {40, 100, 6144, 6145, 12288, 50000, 100000}) {
    const auto p = make_segmentation_plan(b);
    EXPECT_GE(p.f, 0) << b;
    EXPECT_EQ(p.c_plus + p.c_minus, p.c) << b;
    if (p.c > 1) {
      EXPECT_LE(p.k_plus, kMaxCodeBlock) << b;
    }
    int payload = 0;
    for (int i = 0; i < p.c; ++i) {
      EXPECT_TRUE(qpp_size_valid(p.block_size(i))) << b;
      payload += p.payload_bits(i);
    }
    EXPECT_EQ(payload, b) << b;
  }
}

TEST(Segmentation, SegmentDesegmentRoundTrip) {
  for (int b : {100, 6144, 13000}) {
    const auto bits = random_bits(static_cast<std::size_t>(b), 51);
    const auto plan = make_segmentation_plan(b);
    const auto blocks = segment_bits(bits, plan);
    ASSERT_EQ(blocks.size(), static_cast<std::size_t>(plan.c));
    std::vector<std::uint8_t> out;
    EXPECT_TRUE(desegment_bits(blocks, plan, out)) << b;
    EXPECT_EQ(out, bits) << b;
  }
}

TEST(Segmentation, CorruptedBlockFailsCrc) {
  const auto bits = random_bits(13000, 53);
  const auto plan = make_segmentation_plan(13000);
  auto blocks = segment_bits(bits, plan);
  blocks[1][100] ^= 1;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(desegment_bits(blocks, plan, out));
}

TEST(Segmentation, RejectsBadInput) {
  EXPECT_THROW(make_segmentation_plan(0), std::invalid_argument);
  const auto plan = make_segmentation_plan(100);
  EXPECT_THROW(segment_bits(std::vector<std::uint8_t>(99, 0), plan),
               std::invalid_argument);
}

TEST(Segmentation, TruncatedSingleBlockCodewordReportsFailure) {
  // Regression: a single-block TB (c == 1, no per-block CRC24B) whose
  // codeword came back the wrong size must report desegmentation failure
  // — the pipeline once trusted the TB CRC alone in this arm, and a CRC
  // over salvaged/zero-filled bits is not evidence the block was intact.
  const auto bits = random_bits(100, 57);
  const auto plan = make_segmentation_plan(100);
  ASSERT_EQ(plan.c, 1);
  auto blocks = segment_bits(bits, plan);
  blocks[0].resize(blocks[0].size() - 8);  // truncated codeword

  std::vector<std::uint8_t> out;
  EXPECT_FALSE(desegment_bits(blocks, plan, out));
  // Best-effort salvage keeps the output full-size and zero-fills the
  // missing tail.
  ASSERT_EQ(out.size(), static_cast<std::size_t>(plan.b));
  for (std::size_t j = out.size() - 8; j < out.size(); ++j) {
    EXPECT_EQ(out[j], 0) << j;
  }

  // Same contract through the allocation-free span overload.
  std::vector<std::span<const std::uint8_t>> views;
  views.emplace_back(blocks[0]);
  std::vector<std::uint8_t> out2(static_cast<std::size_t>(plan.b), 1);
  EXPECT_FALSE(desegment_bits(
      std::span<const std::span<const std::uint8_t>>(views), plan, out2));

  // Oversized codewords fail the same way.
  auto oversized = segment_bits(bits, plan);
  oversized[0].push_back(0);
  EXPECT_FALSE(desegment_bits(oversized, plan, out));
}

}  // namespace
}  // namespace vran::phy

namespace vran::phy {
namespace {

TEST(Modulation, SeparableDemapperMatchesExhaustive) {
  Xoshiro256 rng(61);
  for (auto m : {Modulation::kQpsk, Modulation::k16Qam, Modulation::k64Qam}) {
    std::vector<IqSample> sym(500);
    for (auto& s : sym) {
      s.i = static_cast<std::int16_t>(int(rng.bounded(12000)) - 6000);
      s.q = static_cast<std::int16_t>(int(rng.bounded(12000)) - 6000);
    }
    const double n0 = 0.08 * kIqScale * kIqScale;
    const auto fast = demodulate_llr(sym, m, n0);
    const auto ref = demodulate_llr_exhaustive(sym, m, n0);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i], ref[i]) << modulation_name(m) << " " << i;
    }
  }
}

}  // namespace
}  // namespace vran::phy
