// Rate-matching tier-exactness harness (TESTING.md "Rate-matching
// exactness"): RateMatcher's run walks and sub-block transposes at every
// available tier against the per-position algorithm, rebuilt here from
// subblock_map() and k0() — for each circular-buffer position the flat
// d-stream index it carries (or -1 for a null), visited one position at
// a time from k0 with a wrap at K_w:
//   * all 188 K x rv 0-3 x E in {1, 31, 32, 33, usable - 1, usable,
//     usable + 1, 3 * usable + 5, kMaxRepetition * usable}: combining
//     into a zeroed buffer, triple extraction and match() bytes;
//   * HARQ chains of 4 transmissions (rv 0, 2, 3, 1) into buffers
//     pre-filled with +32767, -32767 and -32768;
//   * llr / w / triples spans offset by 1-31 elements, and triples
//     pre-filled with a sentinel, so every element must be written;
//   * 4 threads sharing one RateMatcher on disjoint buffers.
// The binary also re-runs under VRAN_FORCE_ISA=<tier> (CTest variants)
// so the default-dispatch paths are pinned per tier too.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/aligned.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "common/saturate.h"
#include "phy/ratematch/rate_match.h"
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

/// The per-position rate matcher: w_src[pos] = 3 * d + stream, or -1.
struct Oracle {
  int ncb = 0;
  int usable = 0;
  std::vector<std::int32_t> w_src;

  explicit Oracle(int k) {
    const SubblockMap m = subblock_map(k + kTurboTail);
    const int kp = m.geo.kp;
    ncb = 3 * kp;
    w_src.assign(static_cast<std::size_t>(ncb), -1);
    for (int j = 0; j < kp; ++j) {
      const auto ju = static_cast<std::size_t>(j);
      const int d01 = m.v0_src[ju] - m.geo.nulls;
      const int d2 = m.v2_src[ju] - m.geo.nulls;
      if (d01 >= 0) {
        w_src[ju] = 3 * d01;
        w_src[static_cast<std::size_t>(kp + 2 * j)] = 3 * d01 + 1;
      }
      if (d2 >= 0) w_src[static_cast<std::size_t>(kp + 2 * j + 1)] = 3 * d2 + 2;
    }
    for (const auto s : w_src) usable += (s >= 0);
  }

  /// Usable positions in the order a read from `start` visits them.
  std::vector<std::int32_t> order(int start) const {
    std::vector<std::int32_t> out;
    for (int j = 0; j < ncb; ++j) {
      const int pos = (start + j) % ncb;
      if (w_src[static_cast<std::size_t>(pos)] >= 0) out.push_back(pos);
    }
    return out;
  }

  std::vector<std::uint8_t> match(const TurboCodeword& cw, int e,
                                  int start) const {
    const std::uint8_t* s[3] = {cw.d0.data(), cw.d1.data(), cw.d2.data()};
    const auto ord = order(start);
    std::vector<std::uint8_t> out(static_cast<std::size_t>(e));
    for (std::size_t i = 0, o = 0; i < out.size(); ++i, ++o) {
      if (o == ord.size()) o = 0;
      const std::int32_t src = w_src[static_cast<std::size_t>(ord[o])];
      out[i] = s[src % 3][src / 3];
    }
    return out;
  }

  void accumulate(std::span<const std::int16_t> llr, int start,
                  std::span<std::int16_t> w) const {
    const auto ord = order(start);
    for (std::size_t i = 0, o = 0; i < llr.size(); ++i, ++o) {
      if (o == ord.size()) o = 0;
      const auto pos = static_cast<std::size_t>(ord[o]);
      w[pos] = sat_add16_sym(w[pos], llr[i]);
    }
  }

  std::vector<std::int16_t> triples(std::span<const std::int16_t> w,
                                    int k) const {
    std::vector<std::int16_t> t(3 * (static_cast<std::size_t>(k) + kTurboTail),
                                0);
    for (std::size_t pos = 0; pos < w.size(); ++pos) {
      if (w_src[pos] >= 0) t[static_cast<std::size_t>(w_src[pos])] = w[pos];
    }
    return t;
  }
};

/// LLRs over the whole int16 range, a quarter of them at the extremes.
void fill_llr(std::span<std::int16_t> v, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  for (auto& x : v) {
    const auto r = rng.next();
    switch (r & 7u) {
      case 0: x = -32768; break;
      case 1: x = 32767; break;
      default: x = static_cast<std::int16_t>(r >> 16); break;
    }
  }
}

TurboCodeword random_codeword(int k, std::uint64_t seed) {
  // Whole bytes, not bits: a stream mixed up shows as a wrong byte.
  Xoshiro256 rng(seed);
  TurboCodeword cw;
  for (auto* s : {&cw.d0, &cw.d1, &cw.d2}) {
    s->resize(static_cast<std::size_t>(k) + kTurboTail);
    for (auto& b : *s) b = static_cast<std::uint8_t>(rng.next());
  }
  return cw;
}

constexpr std::int16_t kSentinel = 0x5A5A;

/// Storage for a span of n elements that starts `offset` elements past
/// a 64-byte boundary.
template <class T>
struct Offset {
  AlignedVector<T> buf;
  std::span<T> s;
  Offset(std::size_t n, std::size_t offset, T fill)
      : buf(n + offset, fill), s(buf.data() + offset, n) {}
};

/// One (K, rv, E) case at every tier: combining into a buffer holding
/// `prefill`, triple extraction into sentinel-filled storage, match().
void check_case(const RateMatcher& rm, const Oracle& o, int k, int rv, int e,
                std::int16_t prefill, std::size_t offset,
                std::uint64_t seed) {
  const std::size_t ncb = static_cast<std::size_t>(rm.buffer_size());
  const std::size_t nt = 3 * (static_cast<std::size_t>(k) + kTurboTail);
  Offset<std::int16_t> llr(static_cast<std::size_t>(e), offset, 0);
  fill_llr(llr.s, seed);
  std::vector<std::int16_t> want_w(ncb, prefill);
  o.accumulate(llr.s, rm.k0(rv), want_w);
  const auto want_t = o.triples(want_w, k);
  const auto cw = random_codeword(k, seed ^ 0xC0DEu);
  const auto want_bits = o.match(cw, e, rm.k0(rv));
  for (const IsaLevel isa : tiers()) {
    SCOPED_TRACE(::testing::Message() << isa_name(isa) << " K=" << k
                                      << " rv=" << rv << " E=" << e
                                      << " offset=" << offset);
    Offset<std::int16_t> w(ncb, 1 + (offset * 7) % 31, prefill);
    rm.dematch_accumulate(llr.s, rv, w.s, isa);
    ASSERT_TRUE(std::equal(want_w.begin(), want_w.end(), w.s.begin()));
    Offset<std::int16_t> t(nt, 1 + (offset * 13) % 31, kSentinel);
    rm.buffer_to_triples_into(w.s, t.s, isa);
    ASSERT_TRUE(std::equal(want_t.begin(), want_t.end(), t.s.begin()));
    ASSERT_EQ(rm.match(cw, e, rv, isa), want_bits);
  }
}

TEST(RateMatchSimd, RunTableIsTwoNRuns) {
  for (const int k : qpp_block_sizes()) {
    const RateMatcher rm(k);
    const auto geo = subblock_geometry(k + kTurboTail);
    EXPECT_EQ(rm.runs().size(), static_cast<std::size_t>(2 * geo.nulls))
        << "K=" << k;
    EXPECT_LE(rm.runs().size(), 56u);
    EXPECT_EQ(rm.usable_size(), Oracle(k).usable) << "K=" << k;
  }
}

TEST(RateMatchSimd, AllBlockSizesRvsAndLengthsMatchPerPositionOracle) {
  std::uint64_t seed = 1;
  for (const int k : qpp_block_sizes()) {
    const RateMatcher rm(k);
    const Oracle o(k);
    const int u = o.usable;
    for (int rv = 0; rv < 4; ++rv) {
      for (const int e : {1, 31, 32, 33, u - 1, u, u + 1, 3 * u + 5,
                          RateMatcher::kMaxRepetition * u}) {
        check_case(rm, o, k, rv, e, 0, 1 + seed % 31, seed);
        ++seed;
      }
    }
  }
}

TEST(RateMatchSimd, HarqChainsFromSaturatedBuffersMatchOracle) {
  const int rvs[] = {0, 2, 3, 1};
  std::uint64_t seed = 100;
  for (const int k : qpp_block_sizes()) {
    const RateMatcher rm(k);
    const Oracle o(k);
    const std::size_t ncb = static_cast<std::size_t>(rm.buffer_size());
    const std::size_t nt = 3 * (static_cast<std::size_t>(k) + kTurboTail);
    for (const std::int16_t prefill :
         {std::int16_t{32767}, std::int16_t{-32767}, std::int16_t{-32768}}) {
      const int e = o.usable / 2 + 7 * (prefill & 3) + 1;
      std::vector<AlignedVector<std::int16_t>> llrs;
      std::vector<std::int16_t> want(ncb, prefill);
      for (const int rv : rvs) {
        auto& l = llrs.emplace_back(static_cast<std::size_t>(e));
        fill_llr(l, ++seed);
        o.accumulate(l, rm.k0(rv), want);
      }
      const auto want_t = o.triples(want, k);
      for (const IsaLevel isa : tiers()) {
        SCOPED_TRACE(::testing::Message() << isa_name(isa) << " K=" << k
                                          << " prefill=" << prefill);
        const std::size_t off = 1 + (seed + static_cast<std::size_t>(isa)) % 31;
        Offset<std::int16_t> w(ncb, off, prefill);
        for (int t = 0; t < 4; ++t) {
          Offset<std::int16_t> l(static_cast<std::size_t>(e), 32 - off, 0);
          std::copy(llrs[static_cast<std::size_t>(t)].begin(),
                    llrs[static_cast<std::size_t>(t)].end(), l.s.begin());
          rm.dematch_accumulate(l.s, rvs[t], w.s, isa);
        }
        ASSERT_TRUE(std::equal(want.begin(), want.end(), w.s.begin()));
        Offset<std::int16_t> t(nt, off / 2 + 1, kSentinel);
        rm.buffer_to_triples_into(w.s, t.s, isa);
        ASSERT_TRUE(std::equal(want_t.begin(), want_t.end(), t.s.begin()));
      }
    }
  }
}

TEST(RateMatchSimd, DefaultTierMatchesScalarTier) {
  // The no-argument calls dispatch to best_isa(), which VRAN_FORCE_ISA
  // clamps in the CTest variants.
  const int k = 4160;
  const RateMatcher rm(k);
  const int e = 7280;
  AlignedVector<std::int16_t> llr(static_cast<std::size_t>(e));
  fill_llr(llr, 9);
  for (int rv = 0; rv < 4; ++rv) {
    EXPECT_EQ(rm.dematch(llr, rv), rm.dematch(llr, rv, IsaLevel::kScalar));
    const auto cw = random_codeword(k, 10 + static_cast<std::uint64_t>(rv));
    EXPECT_EQ(rm.match(cw, e, rv), rm.match(cw, e, rv, IsaLevel::kScalar));
  }
}

TEST(RateMatchSimd, SharedMatcherAcrossThreadsWritesDisjointBuffers) {
  // RateMatchers are shared across decode lanes (workspace.h): the
  // methods are const and keep no state, so concurrent calls on
  // disjoint buffers must each produce the single-thread result.
  const int k = 6144;
  const RateMatcher rm(k);
  const Oracle o(k);
  constexpr int kThreads = 4;
  const int e = o.usable + 1000;
  std::vector<AlignedVector<std::int16_t>> llrs(kThreads);
  std::vector<std::vector<std::int16_t>> want(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    llrs[iu].resize(static_cast<std::size_t>(e));
    fill_llr(llrs[iu], 40 + iu);
    std::vector<std::int16_t> w(static_cast<std::size_t>(rm.buffer_size()), 0);
    o.accumulate(llrs[iu], rm.k0(i % 4), w);
    want[iu] = o.triples(w, k);
  }
  std::vector<AlignedVector<std::int16_t>> got(kThreads);
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&, i] {
      const auto iu = static_cast<std::size_t>(i);
      for (int rep = 0; rep < 20; ++rep) got[iu] = rm.dematch(llrs[iu], i % 4);
    });
  }
  for (auto& t : pool) t.join();
  for (int i = 0; i < kThreads; ++i) {
    const auto iu = static_cast<std::size_t>(i);
    EXPECT_TRUE(std::equal(want[iu].begin(), want[iu].end(), got[iu].begin()))
        << "thread " << i;
  }
}

}  // namespace
}  // namespace vran::phy
