// BLER regression at three MCS operating points.
//
// The golden-vector tests pin exact bytes at high SNR; they say nothing
// about *sensitivity*. A kernel change that loses half a dB of coding
// gain (wrong LLR scale, off-by-one in the interleaver window, a
// saturating add that clips) still decodes clean blocks perfectly — it
// only shows up as a shifted waterfall. This test freezes one
// mid-waterfall operating point per modulation order and bounds the
// measured BLER.
//
// Calibration (the frozen constants): SSE4.1 tier (bit-exact with scalar
// everywhere, no env dependence), 500-byte packets, payload stream
// Xoshiro256(7), default noise_seed, harq_max_tx = 1, N = 100 blocks:
//
//   MCS  4 (QPSK)  @ -0.50 dB -> BLER 0.56
//   MCS 13 (16QAM) @  6.50 dB -> BLER 0.74
//   MCS 20 (64QAM) @ 12.25 dB -> BLER 0.75
//
// (over 25 VRAN_SEED noise realizations the means are 0.50, 0.65 and
// 0.71).
//
// The waterfall is steep (~0.25 dB from BLER 1.0 to ~0.0), so a ±0.5 dB
// sensitivity shift saturates the measurement to ~1 or ~0 and lands far
// outside the bands below. The bands are wide enough for small
// cross-compiler floating-point drift in the channel/OFDM path, which
// perturbs individual marginal blocks but not the operating point.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "pipeline/pipeline.h"

namespace vran {
namespace {

double measure_bler(int mcs, double snr_db, int blocks,
                    IsaLevel isa = IsaLevel::kSse41) {
  pipeline::PipelineConfig cfg;
  cfg.mcs = mcs;
  cfg.max_prb = 100;
  cfg.snr_db = snr_db;
  cfg.isa = isa;
  cfg.harq_max_tx = 1;
  cfg.metrics = nullptr;
  pipeline::UplinkPipeline ul(cfg);
  Xoshiro256 rng(7);
  int failed = 0;
  for (int i = 0; i < blocks; ++i) {
    std::vector<std::uint8_t> p(500);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
    failed += !ul.send_packet(p).crc_ok;
  }
  return static_cast<double>(failed) / blocks;
}

struct OperatingPoint {
  int mcs;
  double snr_db;
  double bler_lo, bler_hi;  ///< frozen tolerance band
};

TEST(BlerRegression, MidWaterfallOperatingPoints) {
  const OperatingPoint points[] = {
      {4, -0.50, 0.35, 0.85},   // measured 0.56
      {13, 6.50, 0.35, 0.85},   // measured 0.74
      {20, 12.25, 0.50, 0.95},  // measured 0.75
  };
  for (const auto& pt : points) {
    const double bler = measure_bler(pt.mcs, pt.snr_db, 100);
    EXPECT_GE(bler, pt.bler_lo)
        << "mcs " << pt.mcs << ": decoder got more sensitive than frozen "
        << "(waterfall moved left) — recalibrate deliberately, don't ignore";
    EXPECT_LE(bler, pt.bler_hi)
        << "mcs " << pt.mcs << ": sensitivity regression (waterfall moved "
        << "right) at " << pt.snr_db << " dB";
  }
}

TEST(BlerRegression, CleanAboveWaterfall) {
  // Half a dB above the waterfall almost every block decodes; a
  // sensitivity regression shows up here as several failed blocks (a
  // 0.5 dB shift puts these points mid-waterfall, about 30 of 50).
  // The block error rate here is not zero: over 600 VRAN_SEED noise
  // realizations of these 50 blocks each, 0.10 % / 0.13 % / 0.06 % of
  // blocks failed (MCS 4 / 13 / 20), so "no failure" held for 93-97 %
  // of realizations, while a second failure among 50 comes to about
  // 0.2 % at the worst point. One failed block is therefore allowed.
  const double one_of_50 = 1.0 / 50;
  EXPECT_LE(measure_bler(4, 0.0, 50), one_of_50);
  EXPECT_LE(measure_bler(13, 7.0, 50), one_of_50);
  EXPECT_LE(measure_bler(20, 13.0, 50), one_of_50);
}

TEST(BlerRegression, HighSnrDecodesAtEveryTier) {
  // Far above the waterfall nothing may fail. Uncapped demapper LLRs
  // (~16000 for QPSK at 30 dB) overflowed the turbo decoder's int16 path
  // metrics: nearly every MCS-4 TB failed at 30 dB and 16QAM TBs at
  // 35 dB, on every tier (modulation.h, kLlrMagnitudeCap).
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > cpu_features().best()) continue;
    EXPECT_EQ(measure_bler(4, 30.0, 20, isa), 0.0) << isa_name(isa);
    EXPECT_EQ(measure_bler(4, 50.0, 20, isa), 0.0) << isa_name(isa);
    EXPECT_EQ(measure_bler(13, 35.0, 20, isa), 0.0) << isa_name(isa);
    EXPECT_EQ(measure_bler(20, 70.0, 20, isa), 0.0) << isa_name(isa);
  }
}

}  // namespace
}  // namespace vran
