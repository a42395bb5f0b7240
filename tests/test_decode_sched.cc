// Decode-scheduler test suite (DESIGN.md §5h).
//
// Three contracts pinned here:
//
//  1. The small-K regression (fuzz iteration 2274): a 35-byte transport
//     block at MCS 28 segments into ONE K=816 code block, which the
//     retired windowed AVX-512 decoder failed noiselessly. On the one
//     batched route it must pass CRC with identical egress on every tier.
//
//  2. Cross-TB/cross-UE grouping is semantics-free: a BatchRunner with
//     the shared scheduler produces byte-identical egress and identical
//     HARQ transmission counts to per-TB decoding (one standalone
//     UplinkPipeline per flow calling send_packet), for any worker
//     count, on scalar and the widest tier, across randomized multi-UE
//     TTIs (mixed sizes, idle flows, retransmissions).
//
//  3. Grouping mechanics: full same-K groups form first, the leftovers
//     pack by K into mixed groups, single-block TBs of different sizes
//     fill the lanes together, the packing is the same for any worker
//     count, and a leftover group too sparse to pay for its lanes gives
//     up its longest block.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "common/aligned.h"
#include "common/cpu_features.h"
#include "common/rng.h"
#include "net/pktgen.h"
#include "obs/metrics.h"
#include "phy/turbo/turbo_encoder.h"
#include "pipeline/batch_runner.h"
#include "pipeline/decode_scheduler.h"
#include "pipeline/pipeline.h"
#include "pipeline/workspace.h"

namespace vran::pipeline {
namespace {

// ---------------------------------------------------------------------------
// 1. Small-K regression (fuzz reproducer 2274, minimized).
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

PipelineConfig smallk_config(IsaLevel isa) {
  PipelineConfig cfg;
  cfg.mcs = 28;
  cfg.max_prb = 100;
  cfg.isa = isa;
  cfg.arrange_method = arrange::Method::kExtract;
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
    UplinkPipeline ul(smallk_config(isa));
    const auto res = ul.send_packet(pkt);
    ASSERT_EQ(res.code_blocks, 1u);  // the K=816 geometry
    EXPECT_TRUE(res.crc_ok) << isa_name(isa);
    ASSERT_TRUE(res.delivered) << isa_name(isa);
    if (reference.empty()) {
      reference = res.egress;
    } else {
      EXPECT_EQ(res.egress, reference) << isa_name(isa);
    }
  }
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

TEST(CrossTbSched, FullSameKGroupsFirstThenMixedLeftovers) {
  if (best_isa() < IsaLevel::kAvx512) {
    GTEST_SKIP() << "lane-fill arithmetic below assumes 4 lane groups";
  }
  // One UE: a 1500-byte MCS-20 TB segments into 3 blocks (2 x K+ and
  // 1 x K-). No K fills a group, so all three pack into one mixed group:
  // 3 of 4 lanes.
  const auto cfgs1 = flow_configs(IsaLevel::kAvx512, 25.0, 1, 1);
  BatchRunner one(BatchRunner::Direction::kUplink, cfgs1, 1);
  auto res = one.run_tti(same_packet_per_flow(1, 1500));
  ASSERT_TRUE(res[0].crc_ok);
  ASSERT_EQ(res[0].code_blocks, 3u);
  const auto& s1 = one.decode_scheduler()->stats();
  EXPECT_EQ(s1.blocks, 3u);
  EXPECT_EQ(s1.batch_groups, 1u);  // {K+, K+, K-}
  EXPECT_EQ(s1.mixed_groups, 1u);
  EXPECT_EQ(s1.windowed_blocks, 0u);
  EXPECT_EQ(s1.lanes_filled, 3u);
  EXPECT_EQ(s1.lanes_available, 4u);

  // Two UEs with the same geometry: the four K+ blocks form one FULL
  // same-K group first, and the two K- blocks are left over as a pair.
  const auto cfgs2 = flow_configs(IsaLevel::kAvx512, 25.0, 1, 2);
  BatchRunner two(BatchRunner::Direction::kUplink, cfgs2, 1);
  res = two.run_tti(same_packet_per_flow(2, 1500));
  ASSERT_TRUE(res[0].crc_ok);
  ASSERT_TRUE(res[1].crc_ok);
  const auto& s2 = two.decode_scheduler()->stats();
  EXPECT_EQ(s2.blocks, 6u);
  EXPECT_EQ(s2.batch_groups, 2u);  // {K+ x4} full + {K- x2}
  EXPECT_EQ(s2.mixed_groups, 0u);
  EXPECT_EQ(s2.lanes_filled, 6u);
  EXPECT_EQ(s2.lanes_available, 8u);
}

TEST(CrossTbSched, SingleBlockTbsPackIntoMixedGroupsForAnyWorkerCount) {
  // Six UEs with single-block TBs of six different K: they share lane
  // groups in K order (4 + 2 at AVX-512, 2 + 2 + 2 at AVX2, one per group
  // at SSE and scalar), with the same packing and egress for 1 and 4
  // workers.
  const int sizes[] = {100, 350, 200, 600, 450, 300};
  const std::size_t flows = std::size(sizes);
  std::vector<std::vector<std::uint8_t>> packets;
  net::FlowConfig fc;
  fc.proto = net::L4Proto::kUdp;
  for (const int bytes : sizes) {
    fc.packet_bytes = bytes;
    packets.push_back(net::PacketGenerator(fc).next());
  }
  const IsaLevel isa = best_isa();
  const auto cap = static_cast<std::uint64_t>(
      phy::TurboBatchDecoder::lane_capacity(isa));
  std::vector<PacketResult> reference;
  DecodeScheduler::Stats ref_stats;
  for (const int workers : {1, 4}) {
    BatchRunner runner(BatchRunner::Direction::kUplink,
                       flow_configs(isa, 25.0, 1, flows), workers);
    const auto res = runner.run_tti(packets);
    const auto& s = runner.decode_scheduler()->stats();
    for (std::size_t f = 0; f < flows; ++f) {
      ASSERT_EQ(res[f].code_blocks, 1u) << sizes[f];
      EXPECT_TRUE(res[f].delivered) << sizes[f];
    }
    EXPECT_EQ(s.blocks, flows);
    EXPECT_EQ(s.batch_groups, (flows + cap - 1) / cap);
    EXPECT_EQ(s.mixed_groups, cap > 1 ? s.batch_groups : 0u);
    EXPECT_EQ(s.lanes_filled, flows);
    EXPECT_EQ(s.windowed_blocks, 0u);
    if (workers == 1) {
      reference = res;
      ref_stats = s;
      continue;
    }
    EXPECT_EQ(s.batch_groups, ref_stats.batch_groups);
    EXPECT_EQ(s.mixed_groups, ref_stats.mixed_groups);
    EXPECT_EQ(s.lanes_available, ref_stats.lanes_available);
    for (std::size_t f = 0; f < flows; ++f) {
      EXPECT_EQ(res[f].egress, reference[f].egress) << sizes[f];
    }
  }
}

TEST(CrossTbSched, SparseLeftoverGroupDecodesItsLongestBlockAlone) {
  // Jobs handed straight to the scheduler, noiseless. K {6144, 40, 40,
  // 40} fills 0.25 of a 4-lane group's steps, below kMinGroupFill: at
  // AVX-512 the 6144 block decodes alone and the three 40s share a
  // group. K {6144, 3520, 2016, 1024} fills 0.52 and stays one group.
  // Two lanes always fill at least half, so AVX2 packs both sets in
  // pairs; one-lane tiers decode one block per group.
  struct Block {
    std::vector<std::uint8_t> bits, hard;
    AlignedVector<std::int16_t> sys, p1, p2;
  };
  const auto make_block = [](int k, std::uint64_t seed) {
    Xoshiro256 rng(seed);
    Block b;
    b.bits.resize(static_cast<std::size_t>(k));
    for (auto& x : b.bits) x = static_cast<std::uint8_t>(rng.next() & 1);
    const auto cw = phy::turbo_encode(b.bits);
    for (auto [stream, bits] : {std::pair{&b.sys, &cw.d0},
                                std::pair{&b.p1, &cw.d1},
                                std::pair{&b.p2, &cw.d2}}) {
      stream->resize(bits->size());
      for (std::size_t t = 0; t < bits->size(); ++t) {
        (*stream)[t] = (*bits)[t] ? std::int16_t{40} : std::int16_t{-40};
      }
    }
    b.hard.resize(b.bits.size());
    return b;
  };
  struct Case {
    std::vector<int> ks;
    std::uint64_t groups[3];  // at lane capacity 1, 2, 4
    std::uint64_t mixed[3];
  };
  const Case cases[] = {{{6144, 40, 40, 40}, {4, 2, 2}, {0, 1, 0}},
                        {{6144, 3520, 2016, 1024}, {4, 2, 1}, {0, 2, 1}}};
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) continue;
    const int cap = phy::TurboBatchDecoder::lane_capacity(isa);
    const int col = cap == 1 ? 0 : cap == 2 ? 1 : 2;
    for (const Case& c : cases) {
      std::vector<Block> blocks;
      for (std::size_t i = 0; i < c.ks.size(); ++i) {
        blocks.push_back(make_block(c.ks[i], 0x5ca1e + i));
      }
      std::vector<DecodeJob> jobs(blocks.size());
      std::vector<DecodeOutcome> outcomes(blocks.size());
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        jobs[i].k = c.ks[i];
        jobs[i].isa = isa;
        jobs[i].in = {blocks[i].sys, blocks[i].p1, blocks[i].p2};
        jobs[i].hard = blocks[i].hard;
        jobs[i].out = &outcomes[i];
      }
      PipelineWorkspace ws(4);
      DecodeScheduler sched(nullptr);
      sched.begin();
      sched.submit(jobs);
      sched.run(ws, nullptr);
      const auto& s = sched.stats();
      EXPECT_EQ(s.batch_groups, c.groups[col])
          << isa_name(isa) << " K0=" << c.ks[0] << " K1=" << c.ks[1];
      EXPECT_EQ(s.mixed_groups, c.mixed[col])
          << isa_name(isa) << " K0=" << c.ks[0] << " K1=" << c.ks[1];
      EXPECT_EQ(s.lanes_filled, blocks.size());
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_EQ(blocks[i].hard, blocks[i].bits)
            << isa_name(isa) << " K=" << c.ks[i];
      }
    }
  }
}

}  // namespace
}  // namespace vran::pipeline
