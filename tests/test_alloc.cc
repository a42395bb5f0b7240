// Steady-state zero-allocation proof for the decode hot path.
//
// This binary links the counting operator new/delete interposer
// (vran_alloc_interpose); PacketResult::decode_allocs then reports every
// heap allocation that happened between OFDM rx and desegmentation. The
// contract under test: after one warmup TTI at a given transport-block
// geometry, the decode chain allocates NOTHING — all scratch comes from
// the pipeline workspace arena and all codec objects from the (bounded)
// caches. Asserted for the scalar and best-available ISA tiers, at 1 and
// 4 decode workers, and with HARQ soft buffers in play.
//
// Under ASan/TSan the interposer compiles out (the sanitizer owns
// malloc); alloc_stats::interposed() is false and these tests skip.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/alloc_stats.h"
#include "common/cpu_features.h"
#include "net/pktgen.h"
#include "phy/turbo/qpp_interleaver.h"
#include "phy/turbo/turbo_encoder.h"
#include "pipeline/batch_runner.h"
#include "pipeline/decode_scheduler.h"
#include "pipeline/pipeline.h"

namespace vran::pipeline {
namespace {

std::vector<std::uint8_t> make_packet(int bytes) {
  net::FlowConfig fc;
  fc.packet_bytes = bytes;
  fc.proto = net::L4Proto::kUdp;
  net::PacketGenerator gen(fc);
  return gen.next();
}

PipelineConfig alloc_config(IsaLevel isa, int workers) {
  PipelineConfig cfg;
  cfg.isa = isa;
  cfg.num_workers = workers;
  // Noiseless so every TTI decodes on the first transmission — the
  // allocation profile is deterministic, not channel-dependent.
  cfg.with_channel = false;
  // Metrics/trace off: the assertion is about the decode chain itself,
  // not about lazily-grown histogram shards.
  cfg.metrics = nullptr;
  cfg.trace = nullptr;
  return cfg;
}

void expect_zero_alloc_steady_state(IsaLevel isa, int workers,
                                    int packet_bytes, int harq_max_tx) {
  if (!alloc_stats::interposed()) {
    GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
  }
  auto cfg = alloc_config(isa, workers);
  cfg.harq_max_tx = harq_max_tx;
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(packet_bytes);

  // Warmup TTI: constructs codecs for this K and grows the arena.
  const auto warm = ul.send_packet(pkt);
  ASSERT_TRUE(warm.crc_ok);
  if (workers > 1) {
    // The parallel path is only exercised with multiple code blocks.
    ASSERT_GE(warm.code_blocks, 2u);
  }

  std::uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    const auto res = ul.send_packet(pkt);
    ASSERT_TRUE(res.crc_ok);
    total += res.decode_allocs;
  }
  EXPECT_EQ(total, 0u) << "decode path allocated in steady state ("
                       << isa_name(isa) << ", " << workers << " workers)";

  // The arena must have stopped growing after warmup.
  const auto stats = ul.workspace().stats();
  EXPECT_GT(stats.arena_bytes_reserved, 0u);
  EXPECT_EQ(stats.codec_evictions, 0u);
}

TEST(AllocSteadyState, ScalarSingleWorker) {
  expect_zero_alloc_steady_state(IsaLevel::kScalar, 1, 700, 1);
}

TEST(AllocSteadyState, ScalarFourWorkers) {
  expect_zero_alloc_steady_state(IsaLevel::kScalar, 4, 1500, 1);
}

TEST(AllocSteadyState, BestIsaSingleWorker) {
  expect_zero_alloc_steady_state(best_isa(), 1, 700, 1);
}

TEST(AllocSteadyState, BestIsaFourWorkers) {
  expect_zero_alloc_steady_state(best_isa(), 4, 1500, 1);
}

TEST(AllocSteadyState, HarqBuffersComeFromArena) {
  // harq_max_tx > 1 routes the per-block soft buffers through
  // HarqBuffers::prepare; noiseless means one transmission per packet,
  // so the profile stays deterministic.
  expect_zero_alloc_steady_state(best_isa(), 1, 1500, 4);
}

TEST(AllocSteadyState, CrossTbSchedulerIsZeroAlloc) {
  // The shared DecodeScheduler's staging comes from the runner-owned
  // workspace arena and its job buffers are grow-only, so cross-UE
  // scheduling rounds must allocate nothing once warm. The alloc
  // counters are process-wide, so exact-zero brackets need either a
  // serial runner (many flows, 1 worker: cross-UE grouping) or a single
  // flow (1 flow, 4 workers: pool-dispatched decode units) — with
  // several flows AND workers, one flow's bracket legitimately observes
  // another flow's concurrent MAC/GTP-U allocations.
  if (!alloc_stats::interposed()) {
    GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
  }
  struct Shape {
    std::size_t flows;
    int workers;
  };
  for (const auto [flows, workers] : {Shape{2, 1}, Shape{1, 4}}) {
    std::vector<PipelineConfig> cfgs(flows, alloc_config(best_isa(), 1));
    for (std::size_t f = 0; f < flows; ++f) {
      cfgs[f].rnti = static_cast<std::uint16_t>(0x4321 + f);
    }
    BatchRunner runner(BatchRunner::Direction::kUplink, cfgs, workers);
    const std::vector<std::vector<std::uint8_t>> packets(
        flows, make_packet(1500));
    std::vector<PacketResult> results;
    runner.run_tti(packets, results);  // warmup: codecs + arenas grow
    ASSERT_TRUE(results[0].crc_ok);
    ASSERT_GE(results[0].code_blocks, 2u);

    std::uint64_t total = 0;
    for (int i = 0; i < 50; ++i) {
      runner.run_tti(packets, results);
      for (std::size_t f = 0; f < flows; ++f) {
        ASSERT_TRUE(results[f].crc_ok);
        total += results[f].decode_allocs;
      }
    }
    EXPECT_EQ(total, 0u) << "cross-TB scheduler allocated in steady state ("
                         << flows << " flows, " << workers << " workers)";
  }
}

TEST(AllocSteadyState, DownlinkDecodeIsZeroAlloc) {
  if (!alloc_stats::interposed()) {
    GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
  }
  DownlinkPipeline dl(alloc_config(best_isa(), 1));
  const auto pkt = make_packet(1024);
  ASSERT_TRUE(dl.send_packet(pkt).crc_ok);
  std::uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    const auto res = dl.send_packet(pkt);
    ASSERT_TRUE(res.crc_ok);
    total += res.decode_allocs;
  }
  EXPECT_EQ(total, 0u);
}

TEST(AllocSteadyState, MixedKSchedulingRotatesThroughEveryK) {
  // Eight blocks per scheduling round, rotating through all 188 legal K,
  // so every round packs different mixed-K groups: the K-agnostic batch
  // decoders, the grouping and the staging must allocate nothing after
  // the first round, at the widest and the scalar tier. Unit slots are
  // grow-only and a round's group count varies with its K (a sparse
  // leftover group gives up its longest block), so every slot a round
  // of eight can use gets its decoder first.
  if (!alloc_stats::interposed()) {
    GTEST_SKIP() << "counting allocator not linked (sanitizer build)";
  }
  const auto sizes = phy::qpp_block_sizes();
  struct Block {
    AlignedVector<std::int16_t> sys, p1, p2;
    std::vector<std::uint8_t> hard;
  };
  std::vector<Block> blocks;
  for (const int k : sizes) {
    const auto cw = phy::turbo_encode(
        std::vector<std::uint8_t>(static_cast<std::size_t>(k), 1));
    Block b;
    for (auto [stream, bits] : {std::pair{&b.sys, &cw.d0},
                                std::pair{&b.p1, &cw.d1},
                                std::pair{&b.p2, &cw.d2}}) {
      stream->resize(bits->size());
      for (std::size_t t = 0; t < bits->size(); ++t) {
        (*stream)[t] = (*bits)[t] ? std::int16_t{40} : std::int16_t{-40};
      }
    }
    b.hard.resize(static_cast<std::size_t>(k));
    blocks.push_back(std::move(b));
  }

  constexpr std::size_t kPerRound = 8;
  const std::size_t rounds = 2 * sizes.size() / kPerRound;
  for (const IsaLevel isa : {best_isa(), IsaLevel::kScalar}) {
    PipelineWorkspace ws(8);
    for (std::size_t u = 0; u < kPerRound; ++u) {
      ws.lane(u).batch_decoder(DecoderSpec{isa, 2, false});
    }
    DecodeScheduler sched(nullptr);
    std::vector<DecodeJob> jobs(kPerRound);
    std::vector<DecodeOutcome> outcomes(kPerRound);
    std::uint64_t allocs = 0;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (std::size_t j = 0; j < kPerRound; ++j) {
        // Stride 23 (coprime with 188): neighbours in a round are far
        // apart in K, and every K comes up once per 188 draws.
        const std::size_t i = (round * kPerRound + j) * 23 % sizes.size();
        Block& b = blocks[i];
        DecodeJob& job = jobs[j];
        job.k = sizes[i];
        job.isa = isa;
        job.max_iterations = 2;
        job.in = {b.sys, b.p1, b.p2};
        job.hard = b.hard;
        job.out = &outcomes[j];
      }
      const std::uint64_t a0 = alloc_stats::news();
      ws.arena().reset();
      sched.begin();
      sched.submit(jobs);
      sched.run(ws, nullptr);
      if (round > 0) allocs += alloc_stats::news() - a0;
      for (std::size_t j = 0; j < kPerRound; ++j) {
        const std::size_t i = (round * kPerRound + j) * 23 % sizes.size();
        EXPECT_EQ(blocks[i].hard, std::vector<std::uint8_t>(
                                      static_cast<std::size_t>(sizes[i]), 1))
            << "K=" << sizes[i] << " " << isa_name(isa);
      }
    }
    if (phy::TurboBatchDecoder::lane_capacity(isa) > 1) {
      EXPECT_GT(sched.stats().mixed_groups, 0u);
    }
    EXPECT_EQ(allocs, 0u) << "mixed-K scheduling allocated after the first "
                             "round ("
                          << isa_name(isa) << ")";
  }
}

TEST(CodecCacheLru, EvictsBeyondCapacityAndStaysBounded) {
  // Cycle more distinct transport-block sizes than the cache holds: the
  // caches must evict (not grow) and keep serving correct decodes.
  auto cfg = alloc_config(best_isa(), 1);
  cfg.codec_cache_capacity = 2;
  UplinkPipeline ul(cfg);
  const int sizes[] = {200, 400, 600, 800, 1000};
  for (int round = 0; round < 2; ++round) {
    for (const int bytes : sizes) {
      const auto res = ul.send_packet(make_packet(bytes));
      ASSERT_TRUE(res.crc_ok) << bytes;
    }
  }
  const auto stats = ul.workspace().stats();
  EXPECT_GT(stats.codec_evictions, 0u);
  // Shared cache holds <= 2 matchers/encoders; each decoder lane <= 2.
  EXPECT_LE(stats.cached_matchers, 2u);
  EXPECT_LE(stats.cached_encoders, 2u);
}

TEST(CodecCacheLru, WithinCapacityNeverEvicts) {
  auto cfg = alloc_config(best_isa(), 1);
  cfg.codec_cache_capacity = 8;
  UplinkPipeline ul(cfg);
  for (int round = 0; round < 3; ++round) {
    for (const int bytes : {300, 900}) {
      ASSERT_TRUE(ul.send_packet(make_packet(bytes)).crc_ok);
    }
  }
  EXPECT_EQ(ul.workspace().stats().codec_evictions, 0u);
}

}  // namespace
}  // namespace vran::pipeline
