// ThreadPool unit tests plus the contract the decode hot path relies on:
// the parallel per-code-block chain (and the multi-flow BatchRunner) must
// be bit-exact against the single-threaded legacy path.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/threadpool.h"
#include "net/pktgen.h"
#include "pipeline/batch_runner.h"
#include "pipeline/pipeline.h"

namespace vran {
namespace {

// ---------------------------------------------------------------------------
// Pool mechanics.
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForHonorsBeginOffset) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(10);
  pool.parallel_for(4, 10, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(hits[i].load(), i >= 4 ? 1 : 0) << i;
  }
}

TEST(ThreadPool, EmptyAndSingleRangesWork) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  std::mutex mu;
  pool.parallel_for(0, 64, [&](std::size_t) {
    std::lock_guard<std::mutex> lk(mu);
    seen.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(ThreadPool, ExceptionPropagatesAfterDraining) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(0, 200,
                        [&](std::size_t i) {
                          if (i == 100) throw std::runtime_error("boom");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // Every index was claimed (throwing does not abandon the range).
  EXPECT_EQ(completed.load(), 199);
}

TEST(ThreadPool, PoolIsReusableAcrossManyCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(0, 100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u) << round;
  }
}

TEST(ThreadPool, SubmitRunsOnWorkerAndJoins) {
  ThreadPool pool(1);
  std::atomic<bool> ran{false};
  auto fut = pool.submit([&] { ran.store(true); });
  fut.get();
  EXPECT_TRUE(ran.load());

  auto failing = pool.submit([] { throw std::runtime_error("task"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitWithoutWorkersThrows) {
  ThreadPool pool(0);
  EXPECT_THROW(pool.submit([] {}), std::logic_error);
}

TEST(ThreadPool, NegativeThreadCountRejected) {
  EXPECT_THROW(ThreadPool(-1), std::invalid_argument);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

}  // namespace
}  // namespace vran

// ---------------------------------------------------------------------------
// Parallel decode chain: bit-exact vs num_workers = 1.
// ---------------------------------------------------------------------------

namespace vran::pipeline {
namespace {

std::vector<std::uint8_t> make_packet(int bytes, std::uint64_t seed = 7) {
  net::FlowConfig fc;
  fc.packet_bytes = bytes;
  fc.seed = seed;
  net::PacketGenerator gen(fc);
  return gen.next();
}

PipelineConfig multi_cb_config() {
  PipelineConfig cfg;
  cfg.isa = best_isa() >= IsaLevel::kSse41 ? IsaLevel::kSse41
                                           : IsaLevel::kScalar;
  cfg.mcs = 20;
  cfg.snr_db = 24.0;
  return cfg;
}

TEST(ParallelDecode, BitExactVsSingleWorkerOnMultiCodeBlockTb) {
  // A 1500-byte packet at MCS 20 segments into >= 2 code blocks; the
  // parallel per-block chain must reproduce the legacy path bit for bit:
  // same egress bytes, same crc_ok, same iteration counts.
  const auto pkt = make_packet(1500);
  auto cfg = multi_cb_config();

  cfg.num_workers = 1;
  UplinkPipeline serial(cfg);
  const auto want = serial.send_packet(pkt);
  ASSERT_TRUE(want.delivered);
  ASSERT_GE(want.code_blocks, 2u);

  for (int workers : {2, 4}) {
    cfg.num_workers = workers;
    UplinkPipeline parallel(cfg);
    const auto got = parallel.send_packet(pkt);
    EXPECT_EQ(got.crc_ok, want.crc_ok) << workers;
    EXPECT_EQ(got.egress, want.egress) << workers;
    EXPECT_EQ(got.turbo_iterations, want.turbo_iterations) << workers;
    EXPECT_EQ(got.code_blocks, want.code_blocks) << workers;
  }
}

TEST(ParallelDecode, BitExactAcrossAPacketSequence) {
  // Channel noise advances per packet; both pipelines see the same
  // deterministic noise stream, so every packet must match, not just the
  // first.
  auto cfg = multi_cb_config();
  cfg.num_workers = 1;
  UplinkPipeline serial(cfg);
  cfg.num_workers = 4;
  UplinkPipeline parallel(cfg);

  net::FlowConfig fc;
  fc.packet_bytes = 1500;
  net::PacketGenerator gen_a(fc), gen_b(fc);
  for (int i = 0; i < 5; ++i) {
    const auto ra = serial.send_packet(gen_a.next());
    const auto rb = parallel.send_packet(gen_b.next());
    EXPECT_EQ(ra.crc_ok, rb.crc_ok) << i;
    EXPECT_EQ(ra.egress, rb.egress) << i;
  }
}

TEST(ParallelDecode, BitExactWithHarqSoftCombining) {
  // HARQ soft buffers are per code block; workers combining into their
  // own block's buffer must not perturb retransmission outcomes.
  auto cfg = multi_cb_config();
  cfg.snr_db = 11.5;  // low enough that retransmissions actually happen
  cfg.harq_max_tx = 4;
  const auto pkt = make_packet(1500);

  cfg.num_workers = 1;
  UplinkPipeline serial(cfg);
  const auto want = serial.send_packet(pkt);

  cfg.num_workers = 4;
  UplinkPipeline parallel(cfg);
  const auto got = parallel.send_packet(pkt);

  EXPECT_EQ(got.crc_ok, want.crc_ok);
  EXPECT_EQ(got.transmissions, want.transmissions);
  EXPECT_EQ(got.egress, want.egress);
}

TEST(ParallelDecode, DownlinkBitExactVsSingleWorker) {
  const auto pkt = make_packet(1500);
  auto cfg = multi_cb_config();
  cfg.num_workers = 1;
  DownlinkPipeline serial(cfg);
  const auto want = serial.send_packet(pkt);
  ASSERT_TRUE(want.delivered);

  cfg.num_workers = 3;
  DownlinkPipeline parallel(cfg);
  const auto got = parallel.send_packet(pkt);
  EXPECT_EQ(got.crc_ok, want.crc_ok);
  EXPECT_EQ(got.egress, want.egress);
}

/// Sample count and nanosecond sum of one stage's histogram.
obs::HistogramStats stage_stats(const obs::MetricsRegistry& reg, Stage s) {
  const auto snap = reg.snapshot();
  const auto* h = snap.histogram(stage_histogram_name(s));
  return h != nullptr ? *h : obs::HistogramStats{};
}

TEST(ParallelDecode, StageHistogramsStayAggregationConsistent) {
  // Same packet count through both pipelines: the parallel path must
  // record the same NUMBER of samples per stage (values differ, counts
  // must not — each block contributes exactly one sample to dematch /
  // arrange / decode in both modes, whichever worker recorded it).
  const auto pkt = make_packet(1500);
  obs::MetricsRegistry serial_reg, parallel_reg;
  auto cfg = multi_cb_config();
  cfg.num_workers = 1;
  cfg.metrics = &serial_reg;
  UplinkPipeline serial(cfg);
  cfg.num_workers = 4;
  cfg.metrics = &parallel_reg;
  UplinkPipeline parallel(cfg);
  const auto ra = serial.send_packet(pkt);
  const auto rb = parallel.send_packet(pkt);
  ASSERT_EQ(ra.crc_ok, rb.crc_ok);
  for (const Stage s :
       {Stage::kRateDematch, Stage::kArrange, Stage::kTurboDecode}) {
    EXPECT_EQ(stage_stats(serial_reg, s).count,
              stage_stats(parallel_reg, s).count)
        << stage_info(s).key;
  }
  EXPECT_GT(stage_stats(parallel_reg, Stage::kTurboDecode).sum, 0u);
}

// ---------------------------------------------------------------------------
// BatchRunner: concurrent multi-UE TTIs, bit-exact vs sequential.
// ---------------------------------------------------------------------------

std::vector<PipelineConfig> make_flow_configs(int n_flows) {
  std::vector<PipelineConfig> cfgs;
  for (int u = 0; u < n_flows; ++u) {
    auto cfg = multi_cb_config();
    cfg.rnti = static_cast<std::uint16_t>(0x100 + u);
    cfg.mcs = 14 + 2 * (u % 4);
    cfg.noise_seed = 1000 + static_cast<std::uint64_t>(u);
    cfgs.push_back(cfg);
  }
  return cfgs;
}

TEST(BatchRunner, MatchesSequentialFlowByFlow) {
  const int n_flows = 6;
  const auto cfgs = make_flow_configs(n_flows);

  BatchRunner batch(BatchRunner::Direction::kUplink, cfgs, 4);
  BatchRunner seq(BatchRunner::Direction::kUplink, cfgs, 1);
  ASSERT_EQ(batch.flows(), static_cast<std::size_t>(n_flows));

  for (int tti = 0; tti < 3; ++tti) {
    std::vector<std::vector<std::uint8_t>> packets;
    for (int u = 0; u < n_flows; ++u) {
      packets.push_back(make_packet(900, 50 + u));
    }
    const auto rb = batch.run_tti(packets);
    const auto rs = seq.run_tti(packets);
    ASSERT_EQ(rb.size(), rs.size());
    for (std::size_t f = 0; f < rb.size(); ++f) {
      EXPECT_EQ(rb[f].delivered, rs[f].delivered) << "tti=" << tti << " f=" << f;
      EXPECT_EQ(rb[f].crc_ok, rs[f].crc_ok) << "tti=" << tti << " f=" << f;
      EXPECT_EQ(rb[f].egress, rs[f].egress) << "tti=" << tti << " f=" << f;
    }
  }
}

TEST(BatchRunner, EmptyPacketMarksFlowIdle) {
  BatchRunner batch(BatchRunner::Direction::kUplink, make_flow_configs(3), 2);
  std::vector<std::vector<std::uint8_t>> packets(3);
  packets[1] = make_packet(512);
  const auto res = batch.run_tti(packets);
  EXPECT_FALSE(res[0].delivered);
  EXPECT_TRUE(res[1].delivered);
  EXPECT_FALSE(res[2].delivered);
}

TEST(BatchRunner, DownlinkDirectionWorks) {
  BatchRunner batch(BatchRunner::Direction::kDownlink, make_flow_configs(4), 3);
  std::vector<std::vector<std::uint8_t>> packets;
  for (int u = 0; u < 4; ++u) packets.push_back(make_packet(700, 90 + u));
  const auto res = batch.run_tti(packets);
  for (std::size_t f = 0; f < res.size(); ++f) {
    EXPECT_TRUE(res[f].delivered) << f;
    EXPECT_EQ(res[f].egress, packets[f]) << f;  // downlink hands back the IP packet
  }
}

TEST(BatchRunner, StageHistogramsCollectAllFlows) {
  obs::MetricsRegistry reg;
  auto cfgs = make_flow_configs(3);
  for (auto& cfg : cfgs) cfg.metrics = &reg;
  BatchRunner batch(BatchRunner::Direction::kUplink, cfgs, 2);
  std::vector<std::vector<std::uint8_t>> packets;
  for (int u = 0; u < 3; ++u) packets.push_back(make_packet(800, 10 + u));
  batch.run_tti(packets);
  const auto turbo = stage_stats(reg, Stage::kTurboDecode);
  EXPECT_GT(turbo.sum, 0u);
  // 3 flows x >= 1 code block each.
  EXPECT_GE(turbo.count, 3u);
}

TEST(BatchRunner, RejectsBadInputs) {
  EXPECT_THROW(BatchRunner(BatchRunner::Direction::kUplink, {}, 2),
               std::invalid_argument);
  BatchRunner batch(BatchRunner::Direction::kUplink, make_flow_configs(2), 2);
  std::vector<std::vector<std::uint8_t>> wrong(3);
  EXPECT_THROW(batch.run_tti(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace vran::pipeline
