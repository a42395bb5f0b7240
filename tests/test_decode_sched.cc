// Decode-scheduler test suite (DESIGN.md §5h).
//
// Three contracts pinned here:
//
//  1. The small-K windowed regression (ROADMAP open item 1, fuzz
//     iteration 2274): a 35-byte transport block at MCS 28 segments into
//     ONE K=816 code block, and the windowed AVX-512 decoder's four
//     204-step windows are too short for the boundary approximation —
//     noiseless CRC failed before this PR. The scheduler must reroute
//     such blocks to the exact batched kernel on EVERY tier, with
//     batch_decode on or off (a single-block TB is never batch-eligible
//     by flow policy, so the reroute is what saves it).
//
//  2. Cross-TB/cross-UE grouping is semantics-free: a BatchRunner with
//     the shared scheduler produces byte-identical egress and identical
//     HARQ transmission counts to per-TB decoding (one standalone
//     UplinkPipeline per flow calling send_packet), for any worker
//     count, on scalar and the widest tier, across randomized multi-UE
//     TTIs (mixed sizes, idle flows, retransmissions).
//
//  3. Grouping mechanics: ragged last groups and single-block fallback
//     groups decode correctly, and cross-UE aggregation measurably
//     raises SIMD lane fill over single-UE scheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "net/pktgen.h"
#include "obs/metrics.h"
#include "pipeline/batch_runner.h"
#include "pipeline/pipeline.h"

namespace vran::pipeline {
namespace {

// ---------------------------------------------------------------------------
// 1. Small-K windowed regression (fuzz reproducer 2274, minimized).
// ---------------------------------------------------------------------------

/// Exact payload of the minimized fuzz reproducer: 35 random bytes from
/// the recorded payload seed. Any 35-byte payload hits the same K=816
/// geometry; keeping the recorded one makes this a true replay.
std::vector<std::uint8_t> smallk_payload() {
  Xoshiro256 rng(14314332698896535063ULL);
  std::vector<std::uint8_t> p(35);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
  return p;
}

PipelineConfig smallk_config(IsaLevel isa, bool batch_decode) {
  PipelineConfig cfg;
  cfg.mcs = 28;
  cfg.max_prb = 100;
  cfg.isa = isa;
  cfg.arrange_method = arrange::Method::kExtract;
  cfg.batch_decode = batch_decode;
  cfg.with_channel = false;  // noiseless: any CRC failure is a kernel bug
  cfg.rnti = 31108;
  cfg.cell_id = 427;
  cfg.teid = 2375551159u;
  cfg.metrics = nullptr;
  return cfg;
}

TEST(SmallKWindowed, NoiselessSingleBlockPassesCrcOnEveryTier) {
  const auto pkt = smallk_payload();
  std::vector<std::uint8_t> reference;
  for (int level = 0; level <= static_cast<int>(best_isa()); ++level) {
    const auto isa = static_cast<IsaLevel>(level);
    for (const bool batch : {false, true}) {
      UplinkPipeline ul(smallk_config(isa, batch));
      const auto res = ul.send_packet(pkt);
      ASSERT_EQ(res.code_blocks, 1u);  // the windowed-eligible geometry
      EXPECT_TRUE(res.crc_ok) << isa_name(isa) << " batch=" << batch;
      ASSERT_TRUE(res.delivered) << isa_name(isa) << " batch=" << batch;
      if (reference.empty()) {
        reference = res.egress;
      } else {
        EXPECT_EQ(res.egress, reference)
            << isa_name(isa) << " batch=" << batch;
      }
    }
  }
}

TEST(SmallKWindowed, ReroutedBlocksAreCounted) {
  // K=816 under-runs the window minimum only where windows split 4 ways
  // (816/4 = 204 < 256); AVX2's halves are long enough (408).
  if (best_isa() < IsaLevel::kAvx512) {
    GTEST_SKIP() << "needs the 4-window AVX-512 tier";
  }
  obs::MetricsRegistry reg;
  auto cfg = smallk_config(IsaLevel::kAvx512, /*batch_decode=*/false);
  cfg.metrics = &reg;
  UplinkPipeline ul(cfg);
  ASSERT_TRUE(ul.send_packet(smallk_payload()).crc_ok);
  EXPECT_EQ(reg.snapshot().counter("decode.smallk_rerouted"), 1u);
}

TEST(SmallKWindowed, SafeBlockLengthsAreNotRerouted) {
  EXPECT_FALSE(phy::windowed_window_too_short(816, IsaLevel::kScalar));
  EXPECT_FALSE(phy::windowed_window_too_short(816, IsaLevel::kSse41));
  EXPECT_FALSE(phy::windowed_window_too_short(816, IsaLevel::kAvx2));
  EXPECT_TRUE(phy::windowed_window_too_short(816, IsaLevel::kAvx512));
  EXPECT_TRUE(phy::windowed_window_too_short(511, IsaLevel::kAvx2));
  // The default bench geometry (K=4224/4160) stays windowed everywhere.
  EXPECT_FALSE(phy::windowed_window_too_short(4224, IsaLevel::kAvx512));
  EXPECT_FALSE(phy::windowed_window_too_short(4160, IsaLevel::kAvx512));
}

// ---------------------------------------------------------------------------
// 2. Cross-TB scheduling is bit-exact with the per-TB path.
// ---------------------------------------------------------------------------

std::vector<PipelineConfig> flow_configs(IsaLevel isa, double snr_db,
                                         int harq_max_tx, std::size_t n) {
  std::vector<PipelineConfig> cfgs(n);
  for (std::size_t f = 0; f < n; ++f) {
    auto& cfg = cfgs[f];
    cfg.isa = isa;
    cfg.mcs = 20;
    cfg.snr_db = snr_db;
    cfg.harq_max_tx = harq_max_tx;
    cfg.rnti = static_cast<std::uint16_t>(0x4000 + f);
    cfg.teid = static_cast<std::uint32_t>(0x500 + f);
    cfg.noise_seed = 7000 + f;  // independent noise stream per UE
    cfg.metrics = nullptr;
  }
  return cfgs;
}

/// Randomized multi-UE TTIs, fixed seed: mixed packet sizes (some big
/// enough to segment, some single-block) and occasional idle flows.
std::vector<std::vector<std::vector<std::uint8_t>>> make_ttis(
    std::size_t flows, int ttis) {
  Xoshiro256 rng(0xDEC0DE5C);
  net::FlowConfig fc;
  fc.proto = net::L4Proto::kUdp;
  std::vector<std::vector<std::vector<std::uint8_t>>> out;
  for (int t = 0; t < ttis; ++t) {
    std::vector<std::vector<std::uint8_t>> packets(flows);
    for (std::size_t f = 0; f < flows; ++f) {
      const auto draw = rng.next() % 8;
      if (draw == 0) continue;  // idle flow this TTI
      fc.packet_bytes = 100 + static_cast<int>(rng.next() % 1400);
      net::PacketGenerator gen(fc);
      packets[f] = gen.next();
    }
    out.push_back(std::move(packets));
  }
  return out;
}

void expect_cross_equals_per_tb(IsaLevel isa, int workers, double snr_db,
                                int harq_max_tx) {
  const std::size_t kFlows = 4;
  const auto cfgs = flow_configs(isa, snr_db, harq_max_tx, kFlows);
  BatchRunner cross(BatchRunner::Direction::kUplink, cfgs, workers);
  ASSERT_NE(cross.decode_scheduler(), nullptr);
  // Reference: each flow decodes its own TBs inside send_packet, on one
  // worker as the runner forces.
  std::vector<std::unique_ptr<UplinkPipeline>> per_tb;
  for (auto cfg : cfgs) {
    cfg.num_workers = 1;
    per_tb.push_back(std::make_unique<UplinkPipeline>(cfg));
  }

  for (const auto& packets : make_ttis(kFlows, 6)) {
    const auto rc = cross.run_tti(packets);
    std::vector<PacketResult> rl(kFlows);
    for (std::size_t f = 0; f < kFlows; ++f) {
      if (!packets[f].empty()) rl[f] = per_tb[f]->send_packet(packets[f]);
    }
    ASSERT_EQ(rc.size(), rl.size());
    for (std::size_t f = 0; f < rc.size(); ++f) {
      EXPECT_EQ(rc[f].crc_ok, rl[f].crc_ok) << f;
      EXPECT_EQ(rc[f].delivered, rl[f].delivered) << f;
      // Identical HARQ behaviour: same number of transmissions...
      EXPECT_EQ(rc[f].transmissions, rl[f].transmissions) << f;
      EXPECT_EQ(rc[f].code_blocks, rl[f].code_blocks) << f;
      // ...and byte-identical egress frames.
      EXPECT_EQ(rc[f].egress, rl[f].egress) << f;
    }
  }
}

TEST(CrossTbSched, MatchesPerTbScalarOneWorker) {
  expect_cross_equals_per_tb(IsaLevel::kScalar, 1, 25.0, 1);
}

TEST(CrossTbSched, MatchesPerTbScalarFourWorkers) {
  expect_cross_equals_per_tb(IsaLevel::kScalar, 4, 25.0, 1);
}

TEST(CrossTbSched, MatchesPerTbBestIsaOneWorker) {
  expect_cross_equals_per_tb(best_isa(), 1, 25.0, 1);
}

TEST(CrossTbSched, MatchesPerTbBestIsaFourWorkers) {
  expect_cross_equals_per_tb(best_isa(), 4, 25.0, 1);
}

TEST(CrossTbSched, MatchesPerTbUnderHarqRetransmissions) {
  // SNR where first transmissions often fail: flows leave the shared
  // scheduling rounds at different HARQ depths.
  expect_cross_equals_per_tb(best_isa(), 4, 11.5, 4);
}

// ---------------------------------------------------------------------------
// 3. Grouping mechanics: ragged groups, singleton fallback, lane fill.
// ---------------------------------------------------------------------------

std::vector<std::vector<std::uint8_t>> same_packet_per_flow(
    std::size_t flows, int bytes) {
  net::FlowConfig fc;
  fc.packet_bytes = bytes;
  fc.proto = net::L4Proto::kUdp;
  net::PacketGenerator gen(fc);
  const auto pkt = gen.next();
  return std::vector<std::vector<std::uint8_t>>(flows, pkt);
}

TEST(CrossTbSched, RaggedAndSingletonGroupsDecodeAndFillLanes) {
  if (best_isa() < IsaLevel::kAvx512) {
    GTEST_SKIP() << "lane-fill arithmetic below assumes 4 lane groups";
  }
  // One UE: a 1500-byte MCS-20 TB segments into 3 blocks (2 x K+ and
  // 1 x K-), so per-TB-equivalent scheduling yields one ragged pair and
  // one singleton fallback group: 3 of 8 available lanes fill.
  const auto cfgs1 = flow_configs(IsaLevel::kAvx512, 25.0, 1, 1);
  BatchRunner one(BatchRunner::Direction::kUplink, cfgs1, 1);
  auto res = one.run_tti(same_packet_per_flow(1, 1500));
  ASSERT_TRUE(res[0].crc_ok);
  ASSERT_EQ(res[0].code_blocks, 3u);
  const auto& s1 = one.decode_scheduler()->stats();
  EXPECT_EQ(s1.blocks, 3u);
  EXPECT_EQ(s1.batch_groups, 2u);  // {K+, K+} ragged + {K-} singleton
  EXPECT_EQ(s1.windowed_blocks, 0u);
  EXPECT_EQ(s1.lanes_filled, 3u);
  EXPECT_EQ(s1.lanes_available, 8u);

  // Two UEs with the same geometry: the scheduler merges their blocks —
  // one FULL 4-lane K+ group plus a K- pair — doubling lane fill.
  const auto cfgs2 = flow_configs(IsaLevel::kAvx512, 25.0, 1, 2);
  BatchRunner two(BatchRunner::Direction::kUplink, cfgs2, 1);
  res = two.run_tti(same_packet_per_flow(2, 1500));
  ASSERT_TRUE(res[0].crc_ok);
  ASSERT_TRUE(res[1].crc_ok);
  const auto& s2 = two.decode_scheduler()->stats();
  EXPECT_EQ(s2.blocks, 6u);
  EXPECT_EQ(s2.batch_groups, 2u);  // {K+ x4} full + {K- x2}
  EXPECT_EQ(s2.lanes_filled, 6u);
  EXPECT_EQ(s2.lanes_available, 8u);
  EXPECT_GT(s2.fill(), s1.fill());
  EXPECT_EQ(s2.groups_per_k.size(), 2u);  // one K+ and one K- group
}

TEST(CrossTbSched, SingleBlockTbsStayWindowedUnlessUnsafe) {
  // A 300-byte MCS-20 TB is one large code block: flow policy keeps it
  // on the (safe-length) windowed path even with batching enabled.
  const auto cfgs = flow_configs(best_isa(), 25.0, 1, 2);
  BatchRunner runner(BatchRunner::Direction::kUplink, cfgs, 1);
  const auto res = runner.run_tti(same_packet_per_flow(2, 300));
  ASSERT_TRUE(res[0].crc_ok);
  ASSERT_EQ(res[0].code_blocks, 1u);
  const auto& s = runner.decode_scheduler()->stats();
  EXPECT_EQ(s.blocks, 2u);
  if (best_isa() >= IsaLevel::kAvx2) {
    EXPECT_EQ(s.windowed_blocks, 2u);
    EXPECT_EQ(s.batch_groups, 0u);
  }
  EXPECT_EQ(s.smallk_rerouted, 0u);
}

}  // namespace
}  // namespace vran::pipeline
