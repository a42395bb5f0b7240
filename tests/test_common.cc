// Unit tests for src/common: CPU feature probing, aligned storage,
// saturating arithmetic, bit packing and the deterministic PRNG.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/aligned.h"
#include "common/bitio.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/saturate.h"
#include "common/timer.h"

namespace vran {
namespace {

TEST(CpuFeatures, BestIsMonotone) {
  const auto& f = cpu_features();
  if (f.best() == IsaLevel::kAvx512) {
    EXPECT_TRUE(f.avx512f && f.avx512bw && f.avx512vl && f.avx512dq);
    EXPECT_TRUE(f.avx2);
  }
  if (f.best() >= IsaLevel::kAvx2) {
    EXPECT_TRUE(f.avx2);
  }
  if (f.best() >= IsaLevel::kSse41) {
    EXPECT_TRUE(f.sse41);
  }
}

// ---------------------------------------------------------------------------
// OS-state gating (OSXSAVE + XCR0): derive_features is a pure function of
// RawIsaInfo, so every CPUID/XCR0 combination — including ones this host
// cannot exhibit, like "CPUID advertises AVX-512 but the OS never enabled
// ZMM state" — is testable by injection.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kEcxSse41 = 1u << 19;
constexpr std::uint32_t kEcxOsxsave = 1u << 27;
constexpr std::uint32_t kEcxAvx = 1u << 28;
constexpr std::uint32_t kEbxAvx2 = 1u << 5;
constexpr std::uint32_t kEbxAvx512Full =
    (1u << 16) | (1u << 17) | (1u << 30) | (1u << 31);  // F, DQ, BW, VL

RawIsaInfo full_avx512_host() {
  RawIsaInfo raw;
  raw.has_leaf1 = true;
  raw.leaf1_ecx = kEcxSse41 | kEcxOsxsave | kEcxAvx;
  raw.has_leaf7 = true;
  raw.leaf7_ebx = kEbxAvx2 | kEbxAvx512Full;
  raw.xcr0 = kXcr0Sse | kXcr0Avx | kXcr0Avx512State;
  return raw;
}

TEST(OsxsaveGating, FullyEnabledHostReachesAvx512) {
  const auto f = derive_features(full_avx512_host());
  EXPECT_TRUE(f.osxsave);
  EXPECT_TRUE(f.avx);
  EXPECT_EQ(f.best(), IsaLevel::kAvx512);
}

TEST(OsxsaveGating, NoOsxsaveMeansNoAvxEvenWithCpuidBits) {
  // The pre-fix bug: CPUID says AVX2/AVX-512 but the OS never set
  // CR4.OSXSAVE, so no YMM/ZMM state exists and vector kernels SIGILL.
  auto raw = full_avx512_host();
  raw.leaf1_ecx &= ~kEcxOsxsave;
  raw.xcr0 = 0;  // XGETBV would itself #UD; probe reports 0
  const auto f = derive_features(raw);
  EXPECT_FALSE(f.avx);
  EXPECT_FALSE(f.avx2);
  EXPECT_FALSE(f.avx512f);
  EXPECT_EQ(f.best(), IsaLevel::kSse41);  // SSE needs no XSAVE state
}

TEST(OsxsaveGating, Xcr0WithoutYmmMasksAvx2AndAvx512) {
  // OSXSAVE set but the OS only enabled x87+SSE state (XCR0[2] clear):
  // common on minimal kernels and some VMs.
  auto raw = full_avx512_host();
  raw.xcr0 = kXcr0Sse;
  const auto f = derive_features(raw);
  EXPECT_TRUE(f.osxsave);
  EXPECT_FALSE(f.avx);
  EXPECT_FALSE(f.avx2);
  EXPECT_FALSE(f.avx512f);
  EXPECT_EQ(f.best(), IsaLevel::kSse41);
}

TEST(OsxsaveGating, Xcr0WithoutZmmMasksOnlyAvx512) {
  // YMM enabled, ZMM not (XCR0[7:5] != 111b) — e.g. a hypervisor hiding
  // AVX-512 state while the guest CPUID still shows the feature bits.
  auto raw = full_avx512_host();
  raw.xcr0 = kXcr0Sse | kXcr0Avx;
  const auto f = derive_features(raw);
  EXPECT_TRUE(f.avx2);
  EXPECT_FALSE(f.avx512f && f.avx512bw && f.avx512vl && f.avx512dq);
  EXPECT_EQ(f.best(), IsaLevel::kAvx2);
}

TEST(OsxsaveGating, EveryPartialZmmMaskBlocksAvx512) {
  for (std::uint64_t zmm_bits : {std::uint64_t{0}, kXcr0Opmask,
                                 kXcr0ZmmHi256, kXcr0HiZmm,
                                 kXcr0Opmask | kXcr0ZmmHi256,
                                 kXcr0Opmask | kXcr0HiZmm,
                                 kXcr0ZmmHi256 | kXcr0HiZmm}) {
    auto raw = full_avx512_host();
    raw.xcr0 = kXcr0Sse | kXcr0Avx | zmm_bits;
    const auto f = derive_features(raw);
    EXPECT_EQ(f.best(), IsaLevel::kAvx2) << "xcr0=" << raw.xcr0;
  }
}

TEST(OsxsaveGating, AvxCpuidBitAloneIsNotEnough) {
  auto raw = full_avx512_host();
  raw.leaf1_ecx &= ~kEcxAvx;  // OS state fine, CPU lacks AVX
  const auto f = derive_features(raw);
  EXPECT_FALSE(f.avx);
  EXPECT_EQ(f.best(), IsaLevel::kSse41);
}

TEST(OsxsaveGating, MissingLeavesDegradeGracefully) {
  RawIsaInfo raw;  // no CPUID at all
  EXPECT_EQ(derive_features(raw).best(), IsaLevel::kScalar);
  raw.has_leaf1 = true;
  raw.leaf1_ecx = kEcxSse41 | kEcxOsxsave | kEcxAvx;
  raw.xcr0 = kXcr0Sse | kXcr0Avx;  // AVX usable but leaf 7 unavailable
  const auto f = derive_features(raw);
  EXPECT_TRUE(f.avx);
  EXPECT_FALSE(f.avx2);
  EXPECT_EQ(f.best(), IsaLevel::kSse41);
}

TEST(OsxsaveGating, LiveProbeIsSelfConsistent) {
  // The cached feature set must equal a fresh derivation of a fresh raw
  // probe (same machine, pure function), and any AVX tier implies the
  // OS-state prerequisites actually held.
  const auto raw = probe_raw_isa_info();
  const auto f = derive_features(raw);
  EXPECT_EQ(f.best(), cpu_features().best());
  if (f.avx2) {
    EXPECT_TRUE(f.osxsave);
    EXPECT_EQ(raw.xcr0 & kXcr0AvxState, kXcr0AvxState);
  }
  if (f.best() == IsaLevel::kAvx512) {
    EXPECT_EQ(raw.xcr0 & kXcr0Avx512State, kXcr0Avx512State);
  }
}

TEST(CpuFeatures, NamesRoundTrip) {
  for (auto isa : {IsaLevel::kScalar, IsaLevel::kSse41, IsaLevel::kAvx2,
                   IsaLevel::kAvx512}) {
    EXPECT_EQ(isa_from_name(isa_name(isa)), isa);
  }
  EXPECT_THROW(isa_from_name("mmx"), std::invalid_argument);
}

TEST(CpuFeatures, RegisterBits) {
  EXPECT_EQ(register_bits(IsaLevel::kSse41), 128);
  EXPECT_EQ(register_bits(IsaLevel::kAvx2), 256);
  EXPECT_EQ(register_bits(IsaLevel::kAvx512), 512);
}

TEST(Aligned, VectorIsAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedVector<std::int16_t> v(n);
    EXPECT_TRUE(is_aligned(v.data())) << n;
  }
}

TEST(Aligned, AllocatorEquality) {
  AlignedAllocator<int> a;
  AlignedAllocator<double> b;
  EXPECT_TRUE(a == b);
}

TEST(Saturate, Add16Saturates) {
  EXPECT_EQ(sat_add16(30000, 10000), 32767);
  EXPECT_EQ(sat_add16(-30000, -10000), -32768);
  EXPECT_EQ(sat_add16(100, -50), 50);
  EXPECT_EQ(sat_add16(32767, 1), 32767);
  EXPECT_EQ(sat_add16(-32768, -1), -32768);
}

TEST(Saturate, Sub16Saturates) {
  EXPECT_EQ(sat_sub16(-30000, 10000), -32768);
  EXPECT_EQ(sat_sub16(30000, -10000), 32767);
  EXPECT_EQ(sat_sub16(5, 7), -2);
}

TEST(Saturate, Narrow16) {
  EXPECT_EQ(sat_narrow16(1 << 20), 32767);
  EXPECT_EQ(sat_narrow16(-(1 << 20)), -32768);
  EXPECT_EQ(sat_narrow16(1234), 1234);
}

TEST(Saturate, Add16SymClampsSymmetrically) {
  EXPECT_EQ(sat_add16_sym(30000, 10000), 32767);
  EXPECT_EQ(sat_add16_sym(-30000, -10000), -32767);  // never INT16_MIN
  EXPECT_EQ(sat_add16_sym(100, -50), 50);
  EXPECT_EQ(sat_add16_sym(0, -32768), -32767);
}

TEST(Saturate, Add16SymCancellationExhaustive) {
  // HARQ unbiasedness: combining x then -x must land exactly on 0 for
  // every representable int16 x (paddsw-style sat_add16 fails this at
  // x = -32768, where the accumulator pins and +32767 can't cancel it).
  for (int x = -32768; x <= 32767; ++x) {
    const auto a = static_cast<std::int16_t>(x);
    const std::int16_t acc = sat_add16_sym(0, a);
    EXPECT_EQ(sat_add16_sym(acc, static_cast<std::int16_t>(-acc)), 0) << x;
    EXPECT_GE(acc, -32767) << x;
  }
}

TEST(BitIo, PackUnpackRoundTrip) {
  Xoshiro256 rng(7);
  for (std::size_t nbytes : {1u, 3u, 16u, 100u}) {
    std::vector<std::uint8_t> bytes(nbytes);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    const auto bits = unpack_bits(bytes);
    ASSERT_EQ(bits.size(), nbytes * 8);
    for (auto b : bits) EXPECT_LE(b, 1);
    EXPECT_EQ(pack_bits(bits), bytes);
  }
}

TEST(BitIo, UnpackMsbFirst) {
  const std::uint8_t byte = 0b10110001;
  const auto bits = unpack_bits(std::span(&byte, 1));
  const std::vector<std::uint8_t> want = {1, 0, 1, 1, 0, 0, 0, 1};
  EXPECT_EQ(bits, want);
}

TEST(BitIo, UnpackMatchesPerBitFormula) {
  // Every nbits from 0 to 70, then random lengths in each residue mod 8,
  // so whole bytes and every partial tail byte are covered.
  Xoshiro256 rng(28);
  std::vector<std::size_t> lengths(71);
  for (std::size_t n = 0; n < lengths.size(); ++n) lengths[n] = n;
  for (std::size_t r = 0; r < 8; ++r) {
    for (int i = 0; i < 4; ++i) lengths.push_back(8 * rng.bounded(400) + r);
  }
  for (const std::size_t nbits : lengths) {
    std::vector<std::uint8_t> bytes((nbits + 7) / 8 + rng.bounded(3));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    const auto bits = unpack_bits(bytes, nbits);
    ASSERT_EQ(bits.size(), nbits);
    for (std::size_t i = 0; i < nbits; ++i) {
      ASSERT_EQ(bits[i], (bytes[i / 8] >> (7 - i % 8)) & 1u)
          << "nbits " << nbits << " bit " << i;
    }
  }
}

TEST(BitIo, PartialUnpackAndBounds) {
  const std::uint8_t byte = 0xFF;
  EXPECT_EQ(unpack_bits(std::span(&byte, 1), 3).size(), 3u);
  EXPECT_THROW(unpack_bits(std::span(&byte, 1), 9), std::invalid_argument);
}

TEST(BitIo, AppendReadRoundTrip) {
  std::vector<std::uint8_t> bits;
  append_bits(bits, 0xABC, 12);
  append_bits(bits, 0x5, 3);
  std::size_t pos = 0;
  EXPECT_EQ(read_bits(bits, pos, 12), 0xABCu);
  EXPECT_EQ(read_bits(bits, pos, 3), 0x5u);
  EXPECT_EQ(pos, 15u);
  EXPECT_THROW(read_bits(bits, pos, 1), std::out_of_range);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BoundedStaysInBound) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.bounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(Timer, StopwatchMonotone) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(sw.seconds(), 0.0);
  (void)sink;
}

TEST(Timer, RdtscMonotoneAndUnitDocumented) {
  // rdtsc() must never fault (the RDTSCP fallback path) and must be
  // monotone across a busy loop whatever unit it counts in; the unit is
  // compile-time queryable so bench math never mixes cycles with nanos.
  const std::uint64_t t0 = rdtsc();
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  (void)sink;
  const std::uint64_t t1 = rdtsc();
  EXPECT_GE(t1, t0);
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_TRUE(rdtsc_counts_cycles());
#else
  EXPECT_FALSE(rdtsc_counts_cycles());
#endif
}

}  // namespace
}  // namespace vran
