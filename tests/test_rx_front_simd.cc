// Receive-front tier-exactness harness (TESTING.md "Receive-front
// exactness"): the SIMD max-log demap and LLR descrambling at every
// available tier, and the packed-bit CRC / bit packer, each against an
// independent reference:
//   * demap: the scalar tier and demodulate_llr_exhaustive, over every
//     int16 value as I and as Q, every modulation and SNRs from -5 to
//     70 dB (the high ones drive the kLlrMagnitudeCap clamp), the .5
//     rounding boundary, symbol counts 0-17 and unaligned spans;
//   * Gold sequence / scrambling / descrambling: a bit-serial LFSR with
//     the full 1600-step warm-up, for 1000 c_init values at lengths
//     0-200 and 21600, with -32768 inputs;
//   * crc_bits: a bit-serial polynomial division, at lengths 0-300 and
//     every QPP block size K, from unaligned offsets;
//   * pack_bits_into: a bit-at-a-time packer.
// The binary also re-runs under VRAN_FORCE_ISA=<tier> (CTest variants)
// so the default-dispatch paths are pinned per tier too.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstdint>
#include <vector>

#include "common/bitio.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "phy/crc/crc.h"
#include "phy/modulation/modulation.h"
#include "phy/scramble/scrambler.h"
#include "phy/turbo/qpp_interleaver.h"

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

const Modulation kMods[] = {Modulation::kQpsk, Modulation::k16Qam,
                            Modulation::k64Qam};
const double kSnrDb[] = {-5, 6.5, 18, 25, 30, 45, 70};

double n0_at(double snr_db) {
  return std::pow(10.0, -snr_db / 10.0) * kIqScale * kIqScale;
}

// --- Demap ------------------------------------------------------------------

/// 65536 symbols whose I runs through every int16 value in order and
/// whose Q runs through every value in an odd-stride permutation.
std::vector<IqSample> every_axis_value() {
  std::vector<IqSample> sym(65536);
  for (std::uint32_t k = 0; k < 65536; ++k) {
    sym[k].i = static_cast<std::int16_t>(static_cast<std::uint16_t>(k));
    sym[k].q = static_cast<std::int16_t>(
        static_cast<std::uint16_t>(k * 40503u + 12345u));
  }
  return sym;
}

std::vector<std::int16_t> demap(std::span<const IqSample> sym, Modulation m,
                                double n0, IsaLevel isa) {
  std::vector<std::int16_t> out(sym.size() *
                                static_cast<std::size_t>(bits_per_symbol(m)));
  demodulate_llr_into(sym, m, n0, out, kDefaultLlrScale, isa);
  return out;
}

TEST(RxFrontDemap, EveryAxisValueMatchesExhaustiveAtEveryTier) {
  const auto sym = every_axis_value();
  for (const Modulation m : kMods) {
    for (const double snr : kSnrDb) {
      const double n0 = n0_at(snr);
      const auto ref = demodulate_llr_exhaustive(sym, m, n0);
      for (const IsaLevel isa : tiers()) {
        const auto got = demap(sym, m, n0, isa);
        ASSERT_EQ(got.size(), ref.size());
        std::size_t mismatches = 0, first = 0;
        for (std::size_t k = 0; k < got.size(); ++k) {
          if (got[k] != ref[k] && mismatches++ == 0) first = k;
        }
        EXPECT_EQ(mismatches, 0u)
            << modulation_name(m) << " " << snr << " dB " << isa_name(isa)
            << ": first at LLR " << first << " got " << got[first]
            << " want " << ref[first];
      }
    }
  }
}

TEST(RxFrontDemap, HighSnrReachesClampAndHalfBoundary) {
  // The sweep above is only as strong as the values it reaches: at high
  // SNR the cap must engage, and somewhere an exact .5 must round.
  const auto sym = every_axis_value();
  const auto llr = demap(sym, Modulation::kQpsk, n0_at(70), IsaLevel::kScalar);
  bool pos = false, neg = false;
  for (const auto v : llr) {
    ASSERT_LE(std::abs(int{v}), kLlrMagnitudeCap);
    pos = pos || v == kLlrMagnitudeCap;
    neg = neg || v == -kLlrMagnitudeCap;
  }
  EXPECT_TRUE(pos && neg);
  // QPSK: d0 - d1 = -4 * 2896 * y, so with llr_scale / n0 = 2^-7 the
  // LLR is -90.5 * y: every odd y lands exactly on a half.
  std::vector<IqSample> halves;
  for (int y = -41; y <= 41; y += 2) {
    halves.push_back({static_cast<std::int16_t>(y),
                      static_cast<std::int16_t>(-y)});
  }
  const double n0 = 128.0 * kDefaultLlrScale;
  const auto ref = demodulate_llr_exhaustive(halves, Modulation::kQpsk, n0);
  for (const IsaLevel isa : tiers()) {
    EXPECT_EQ(demap(halves, Modulation::kQpsk, n0, isa),
              std::vector<std::int16_t>(ref.begin(), ref.end()))
        << isa_name(isa);
  }
  // y = -41: 3710.5 rounds away from zero (half-even would give 3710).
  EXPECT_EQ(ref[0], 3711);
  EXPECT_EQ(ref[1], -3711);
}

TEST(RxFrontDemap, LoopTailsAndUnalignedSpansMatchScalar) {
  Xoshiro256 rng(12);
  std::vector<IqSample> pool(64);
  for (auto& s : pool) {
    s.i = static_cast<std::int16_t>(rng.next());
    s.q = static_cast<std::int16_t>(int(rng.bounded(16000)) - 8000);
  }
  for (const Modulation m : kMods) {
    const auto bps = static_cast<std::size_t>(bits_per_symbol(m));
    for (std::size_t n = 0; n <= 17; ++n) {
      for (std::size_t off = 0; off < 4; ++off) {
        const std::span<const IqSample> in(pool.data() + off, n);
        const auto ref = demap(in, m, n0_at(18), IsaLevel::kScalar);
        for (const IsaLevel isa : tiers()) {
          // Output starts one int16 into its buffer, so no store aligns.
          std::vector<std::int16_t> buf(n * bps + 1, 0x5A5A);
          demodulate_llr_into(in, m, n0_at(18),
                              std::span<std::int16_t>(buf).subspan(1, n * bps),
                              kDefaultLlrScale, isa);
          EXPECT_EQ(buf[0], 0x5A5A);
          EXPECT_EQ(std::vector<std::int16_t>(buf.begin() + 1, buf.end()), ref)
              << modulation_name(m) << " n=" << n << " off=" << off << " "
              << isa_name(isa);
        }
      }
    }
  }
}

TEST(RxFrontDemap, DefaultDispatchMatchesScalar) {
  const auto sym = every_axis_value();
  for (const Modulation m : kMods) {
    std::vector<std::int16_t> got(sym.size() *
                                  static_cast<std::size_t>(bits_per_symbol(m)));
    demodulate_llr_into(sym, m, n0_at(18), got);
    EXPECT_EQ(got, demap(sym, m, n0_at(18), IsaLevel::kScalar))
        << modulation_name(m) << " at " << isa_name(best_isa());
  }
}

// --- Gold sequence, scrambling, descrambling --------------------------------

/// 36.211 §7.2 bit-serial: both LFSRs stepped one bit at a time through
/// the 1600-bit warm-up.
std::vector<std::uint8_t> reference_gold(std::uint32_t c_init, std::size_t n) {
  std::uint32_t x1 = 1u, x2 = c_init & 0x7FFFFFFFu;
  const auto step = [&] {
    const std::uint32_t b1 = ((x1 >> 3) ^ x1) & 1u;
    const std::uint32_t b2 = ((x2 >> 3) ^ (x2 >> 2) ^ (x2 >> 1) ^ x2) & 1u;
    x1 = (x1 >> 1) | (b1 << 30);
    x2 = (x2 >> 1) | (b2 << 30);
  };
  for (int i = 0; i < 1600; ++i) step();
  std::vector<std::uint8_t> c(n);
  for (auto& b : c) {
    b = static_cast<std::uint8_t>((x1 ^ x2) & 1u);
    step();
  }
  return c;
}

std::vector<std::uint32_t> c_inits() {
  std::vector<std::uint32_t> out;
  Xoshiro256 rng(77);
  out.push_back(0);
  out.push_back(0x7FFFFFFFu);
  out.push_back(0xFFFFFFFFu);  // bit 31 is not part of x2
  while (out.size() < 1000) out.push_back(static_cast<std::uint32_t>(rng.next()));
  return out;
}

TEST(RxFrontGold, GeneratorMatchesBitSerialReference) {
  for (const std::uint32_t c_init : c_inits()) {
    const auto ref = reference_gold(c_init, 21600);
    ASSERT_EQ(gold_sequence(c_init, 21600), ref) << c_init;
    // Mixed single-bit and word draws stay on one stream.
    GoldSequence g(c_init);
    std::size_t at = 0;
    for (int round = 0; at + 40 < ref.size() && round < 50; ++round) {
      for (int k = 0; k < round % 7; ++k, ++at) {
        ASSERT_EQ(g.next(), ref[at]) << c_init << " bit " << at;
      }
      const std::uint32_t w = g.next32();
      for (int k = 0; k < 32; ++k, ++at) {
        ASSERT_EQ((w >> k) & 1u, ref[at]) << c_init << " bit " << at;
      }
    }
  }
}

TEST(RxFrontGold, ScrambleAndDescrambleMatchReferenceAtEveryTier) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 200; ++n) lengths.push_back(n);
  lengths.push_back(21600);
  Xoshiro256 rng(5);
  std::vector<std::int16_t> src(21600);
  std::vector<std::uint8_t> bits(21600);
  for (std::size_t k = 0; k < src.size(); ++k) {
    // Every fourth value is -32768, whose flip saturates to 32767.
    src[k] = k % 4 == 0 ? std::int16_t{-32768}
                        : static_cast<std::int16_t>(rng.next());
    bits[k] = static_cast<std::uint8_t>(rng.next() & 1);
  }
  const auto inits = c_inits();
  for (std::size_t ci = 0; ci < inits.size(); ++ci) {
    const std::uint32_t c_init = inits[ci];
    const auto c = reference_gold(c_init, 21600);
    for (const std::size_t n : lengths) {
      // Lengths 0-200 for every c_init would repeat the same tails a
      // thousand times; a tenth of them covers every tail at every tier.
      if (n != 21600 && n % 10 != ci % 10) continue;
      std::vector<std::uint8_t> sb(bits.begin(), bits.begin() + n);
      scramble_bits(sb, c_init);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(sb[k], bits[k] ^ c[k]) << c_init << " n=" << n << " k=" << k;
      }
      std::vector<std::int16_t> want(src.begin(), src.begin() + n);
      for (std::size_t k = 0; k < n; ++k) {
        if (c[k]) want[k] = want[k] == -32768 ? 32767 : std::int16_t(-want[k]);
      }
      for (const IsaLevel isa : tiers()) {
        std::vector<std::int16_t> got(src.begin(), src.begin() + n);
        descramble_llr(got, c_init, isa);
        ASSERT_EQ(got, want) << c_init << " n=" << n << " " << isa_name(isa);
      }
    }
  }
}

TEST(RxFrontGold, DefaultDispatchDescrambleMatchesScalar) {
  std::vector<std::int16_t> a(1237), b;
  Xoshiro256 rng(9);
  for (auto& v : a) v = static_cast<std::int16_t>(rng.next());
  b = a;
  descramble_llr(a, 4242);
  descramble_llr(b, 4242, IsaLevel::kScalar);
  EXPECT_EQ(a, b) << isa_name(best_isa());
}

// --- Packed-bit CRC and bit packing ----------------------------------------

/// 36.212 §5.1.1 bit-serial division with a zero initial remainder.
std::uint32_t reference_crc(std::span<const std::uint8_t> bits, CrcType t) {
  const int len = crc_length(t);
  const std::uint32_t poly = crc_polynomial(t);
  const std::uint32_t top = 1u << (len - 1);
  const std::uint32_t mask = (1u << len) - 1;
  std::uint32_t r = 0;
  for (const std::uint8_t b : bits) {
    const bool x = ((r & top) != 0) ^ ((b & 1u) != 0);
    r = ((r << 1) ^ (x ? poly : 0u)) & mask;
  }
  return r;
}

TEST(RxFrontCrc, PackedCrcMatchesBitSerialReference) {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (const int k : qpp_block_sizes()) lengths.push_back(static_cast<std::size_t>(k));
  Xoshiro256 rng(31);
  std::vector<std::uint8_t> pool(6144 + 16);
  // Bits 1-7 of each byte are noise: only bit 0 carries the message.
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng.next());
  for (const CrcType t :
       {CrcType::k24A, CrcType::k24B, CrcType::k16, CrcType::k8}) {
    for (const std::size_t n : lengths) {
      for (std::size_t off = 0; off < 8; ++off) {
        const std::span<const std::uint8_t> msg(pool.data() + off, n);
        ASSERT_EQ(crc_bits(msg, t), reference_crc(msg, t))
            << "type " << int(t) << " n=" << n << " off=" << off;
      }
    }
  }
}

TEST(RxFrontCrc, PackBitsMatchesReference) {
  Xoshiro256 rng(41);
  std::vector<std::uint8_t> pool(6144 + 16);
  for (auto& b : pool) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t n = 0; n <= 300; ++n) {
    for (std::size_t off = 0; off < 8; ++off) {
      const std::span<const std::uint8_t> bits(pool.data() + off, n);
      std::vector<std::uint8_t> want((n + 7) / 8, 0);
      for (std::size_t k = 0; k < n; ++k) {
        want[k / 8] |= static_cast<std::uint8_t>((bits[k] & 1u) << (7 - k % 8));
      }
      std::vector<std::uint8_t> got(want.size(), 0xEE);
      pack_bits_into(bits, got);
      ASSERT_EQ(got, want) << "n=" << n << " off=" << off;
    }
  }
}

}  // namespace
}  // namespace vran::phy
