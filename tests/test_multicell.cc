// Multi-cell scale-out runtime tests (pipeline/cell_shard.h,
// pipeline/multicell.h):
//   * bit-identity: per-flow egress bytes + HARQ counters through the
//     sharded runner (several shard x worker x steal combinations) are
//     identical to driving each flow's packet sequence through a lone
//     sequential pipeline — the DESIGN.md §6 determinism guarantee,
//     asserted via the chained FNV-1a egress fingerprint;
//   * deadline scheduler: an impossible TTI budget walks the degrade
//     ladder (miss -> level 1 -> level 2 -> dropped TTIs) and a
//     disabled ladder only counts misses;
//   * producer-side pool starvation (injected kMempoolAllocFail) is a
//     degrade signal, and the ladder recovers once pressure clears;
//   * idle workers blocked on the offer doorbell serve every packet.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "net/pktgen.h"
#include "pipeline/multicell.h"
#include "pipeline/pipeline.h"

namespace vran {
namespace {

// Mirror of the cell_shard.cc fingerprint: FNV-1a chained over
// length-delimited egress frames, in order.
std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_frame(std::uint64_t h,
                          std::span<const std::uint8_t> frame) {
  const std::uint64_t n = frame.size();
  std::uint8_t len[8];
  for (int i = 0; i < 8; ++i) len[i] = static_cast<std::uint8_t>(n >> (8 * i));
  return fnv1a(fnv1a(h, len), frame);
}

pipeline::MultiCellConfig small_config(int cells, int workers, bool steal) {
  pipeline::MultiCellConfig mc;
  mc.cells = cells;
  mc.flows_per_cell = 2;
  mc.workers = workers;
  mc.steal = steal;
  mc.degrade = false;  // identity tests must not trade quality for time
  mc.buffer_bytes = 512;
  // HARQ in play: a low SNR forces retransmissions, so the identity
  // check covers soft-combining state, not just the clean-decode path.
  mc.flow_template.harq_max_tx = 2;
  mc.flow_template.snr_db = 10.0;
  mc.flow_template.metrics = nullptr;  // shards install their own
  return mc;
}

/// Per-flow packet sequences, identical for runner and reference.
std::vector<std::vector<std::vector<std::uint8_t>>> make_traffic(
    const pipeline::MultiCellConfig& mc, int packets_per_flow) {
  std::vector<std::vector<std::vector<std::uint8_t>>> traffic;
  for (int c = 0; c < mc.cells; ++c) {
    for (int f = 0; f < mc.flows_per_cell; ++f) {
      net::FlowConfig fc;
      fc.packet_bytes = 200;
      fc.seed = 1 + 100ull * static_cast<std::uint64_t>(c) +
                static_cast<std::uint64_t>(f);
      net::PacketGenerator gen(fc);
      std::vector<std::vector<std::uint8_t>> seq;
      for (int k = 0; k < packets_per_flow; ++k) seq.push_back(gen.next());
      traffic.push_back(std::move(seq));
    }
  }
  return traffic;
}

struct FlowRef {
  std::uint64_t delivered = 0, crc_ok = 0, transmissions = 0;
  std::uint64_t egress_bytes = 0;
  std::uint64_t egress_hash = 0xcbf29ce484222325ull;
};

/// Sequential ground truth: each flow's packets through a lone pipeline.
std::vector<FlowRef> sequential_reference(
    const pipeline::MultiCellConfig& mc,
    const std::vector<std::vector<std::vector<std::uint8_t>>>& traffic) {
  std::vector<FlowRef> ref;
  for (int c = 0; c < mc.cells; ++c) {
    for (int f = 0; f < mc.flows_per_cell; ++f) {
      auto cfg = pipeline::MultiCellRunner::flow_config(mc, c, f);
      cfg.metrics = nullptr;
      pipeline::UplinkPipeline pipe(cfg);
      FlowRef r;
      for (const auto& pkt :
           traffic[static_cast<std::size_t>(c * mc.flows_per_cell + f)]) {
        const auto res = pipe.send_packet(pkt);
        r.delivered += res.delivered ? 1 : 0;
        r.crc_ok += res.crc_ok ? 1 : 0;
        r.transmissions += static_cast<std::uint64_t>(res.transmissions);
        r.egress_bytes += res.egress.size();
        r.egress_hash = fnv1a_frame(r.egress_hash, res.egress);
      }
      ref.push_back(r);
    }
  }
  return ref;
}

void expect_identical_to_sequential(int cells, int workers, bool steal) {
  SCOPED_TRACE(testing::Message() << "cells=" << cells << " workers="
                                  << workers << " steal=" << steal);
  const auto mc = small_config(cells, workers, steal);
  constexpr int kPacketsPerFlow = 5;
  const auto traffic = make_traffic(mc, kPacketsPerFlow);
  const auto ref = sequential_reference(mc, traffic);

  pipeline::MultiCellRunner runner(mc);
  runner.start();
  for (int k = 0; k < kPacketsPerFlow; ++k) {
    for (int c = 0; c < mc.cells; ++c) {
      for (int f = 0; f < mc.flows_per_cell; ++f) {
        const auto& pkt =
            traffic[static_cast<std::size_t>(c * mc.flows_per_cell + f)]
                   [static_cast<std::size_t>(k)];
        // The ring is far larger than the traffic; offer cannot fail.
        ASSERT_TRUE(runner.offer(c, f, pkt));
      }
    }
  }
  ASSERT_TRUE(runner.drain(/*timeout_ms=*/60000));
  runner.stop();

  const auto totals = runner.totals();
  EXPECT_EQ(totals.packets,
            static_cast<std::uint64_t>(cells * mc.flows_per_cell *
                                       kPacketsPerFlow));
  EXPECT_EQ(totals.dropped_ttis, 0u);
  EXPECT_EQ(totals.degraded, 0u);

  for (int c = 0; c < cells; ++c) {
    const auto stats = runner.shard(c).stats();
    for (int f = 0; f < mc.flows_per_cell; ++f) {
      SCOPED_TRACE(testing::Message() << "cell=" << c << " flow=" << f);
      const auto& got = stats.flow[static_cast<std::size_t>(f)];
      const auto& want =
          ref[static_cast<std::size_t>(c * mc.flows_per_cell + f)];
      EXPECT_EQ(got.packets, static_cast<std::uint64_t>(kPacketsPerFlow));
      EXPECT_EQ(got.delivered, want.delivered);
      EXPECT_EQ(got.crc_ok, want.crc_ok);
      EXPECT_EQ(got.transmissions, want.transmissions);
      EXPECT_EQ(got.egress_bytes, want.egress_bytes);
      EXPECT_EQ(got.egress_hash, want.egress_hash);
    }
  }
}

TEST(MultiCell, EgressIdenticalToSequentialSingleWorker) {
  expect_identical_to_sequential(/*cells=*/2, /*workers=*/1, /*steal=*/false);
}

TEST(MultiCell, EgressIdenticalToSequentialTwoWorkersStealing) {
  expect_identical_to_sequential(/*cells=*/2, /*workers=*/2, /*steal=*/true);
}

TEST(MultiCell, EgressIdenticalToSequentialMoreShardsThanWorkers) {
  expect_identical_to_sequential(/*cells=*/3, /*workers=*/2, /*steal=*/true);
}

// Idle workers block on the doorbell offer() rings: packets offered one
// at a time, each after the workers went back to sleep, are all served,
// and stop() returns while the workers are blocked.
TEST(MultiCell, IdleWorkersWakeForEachOffer) {
  const auto mc = small_config(/*cells=*/2, /*workers=*/2, /*steal=*/true);
  constexpr int kPackets = 4;
  const auto traffic = make_traffic(mc, kPackets);
  pipeline::MultiCellRunner runner(mc);
  runner.start();
  for (int k = 0; k < kPackets; ++k) {
    // Long enough for both workers to finish yielding and block.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const int c = k % mc.cells;
    ASSERT_TRUE(runner.offer(
        c, 0,
        traffic[static_cast<std::size_t>(c * mc.flows_per_cell)]
               [static_cast<std::size_t>(k)]));
    ASSERT_TRUE(runner.drain(/*timeout_ms=*/60000));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  runner.stop();
  EXPECT_EQ(runner.totals().packets, static_cast<std::uint64_t>(kPackets));
}

// ---------------------------------------------------------------- shard --

pipeline::CellShardConfig one_flow_shard() {
  pipeline::CellShardConfig sc;
  pipeline::PipelineConfig flow;
  flow.metrics = nullptr;
  sc.flows = {flow};
  sc.buffer_bytes = 512;
  return sc;
}

// Drive the shard like a worker would, from the test thread.
bool run_one_tti(pipeline::CellShard& shard) {
  EXPECT_TRUE(shard.try_claim());
  const bool ran = shard.run_tti();
  shard.release();
  shard.recycle();
  return ran;
}

TEST(CellShard, ImpossibleBudgetWalksLadderAndDrops) {
  auto sc = one_flow_shard();
  sc.tti_budget_ns = 1;  // every TTI misses
  sc.drop_after_misses = 2;
  pipeline::CellShard shard(std::move(sc));

  net::FlowConfig fc;
  fc.packet_bytes = 200;
  net::PacketGenerator gen(fc);
  constexpr int kPackets = 12;
  for (int k = 0; k < kPackets; ++k) {
    ASSERT_TRUE(shard.offer(0, gen.next()));
    ASSERT_TRUE(run_one_tti(shard));
  }
  const auto s = shard.stats();
  // Ladder walk: miss -> level 1 -> level 2, then after two consecutive
  // misses at level 2 whole TTIs are dropped unprocessed.
  EXPECT_GT(s.deadline_miss, 0u);
  EXPECT_GT(s.degraded, 0u);
  EXPECT_GT(s.dropped_ttis, 0u);
  EXPECT_EQ(s.degrade_level, 2);
  EXPECT_EQ(s.dropped_packets, s.dropped_ttis);  // one packet per TTI
  // Every offered packet is accounted for exactly once.
  EXPECT_EQ(s.packets + s.dropped_packets,
            static_cast<std::uint64_t>(kPackets));
  EXPECT_EQ(shard.metrics().counter("cell.dropped").value(), s.dropped_ttis);
}

TEST(CellShard, DisabledLadderOnlyCountsMisses) {
  auto sc = one_flow_shard();
  sc.tti_budget_ns = 1;
  sc.degrade = false;
  pipeline::CellShard shard(std::move(sc));

  net::FlowConfig fc;
  fc.packet_bytes = 200;
  net::PacketGenerator gen(fc);
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE(shard.offer(0, gen.next()));
    ASSERT_TRUE(run_one_tti(shard));
  }
  const auto s = shard.stats();
  EXPECT_EQ(s.deadline_miss, 6u);
  EXPECT_EQ(s.degraded, 0u);
  EXPECT_EQ(s.dropped_ttis, 0u);
  EXPECT_EQ(s.degrade_level, 0);
  EXPECT_EQ(s.packets, 6u);
}

TEST(CellShard, AllocPressureIsADegradeSignalAndRecovers) {
  auto sc = one_flow_shard();
  sc.tti_budget_ns = 60'000'000'000ull;  // never miss on wall time
  sc.alloc_retries = 2;
  sc.alloc_backoff_budget_us = 5;
  fault::FaultPlan plan;
  // Exactly one injected exhaustion: the first offer fails after its
  // bounded backoff, everything after succeeds.
  plan.enable(fault::FaultPoint::kMempoolAllocFail, 1.0, /*max_triggers=*/3);
  fault::FaultInjector inj(plan);
  sc.fault = &inj;
  pipeline::CellShard shard(std::move(sc));

  net::FlowConfig fc;
  fc.packet_bytes = 200;
  net::PacketGenerator gen(fc);
  // Burns the injector's triggers (initial try + 2 retries), fails
  // without blocking, and records producer-side pressure.
  EXPECT_FALSE(shard.offer(0, gen.next()));
  const auto s0 = shard.stats();
  EXPECT_EQ(s0.offer_fails, 1u);

  // The next TTI sees the pressure and runs degraded. Because it also
  // finishes far under budget, the ladder steps straight back down in
  // the same TTI's deadline epilogue — recovery is immediate once the
  // pressure clears.
  ASSERT_TRUE(shard.offer(0, gen.next()));
  ASSERT_TRUE(run_one_tti(shard));
  EXPECT_EQ(shard.stats().degraded, 1u);
  EXPECT_EQ(shard.stats().degrade_level, 0);

  // With no new pressure the following TTI runs at full quality again.
  ASSERT_TRUE(shard.offer(0, gen.next()));
  ASSERT_TRUE(run_one_tti(shard));
  EXPECT_EQ(shard.stats().degraded, 1u);
  EXPECT_EQ(shard.stats().degrade_level, 0);
}

TEST(CellShard, OfferValidatesFlowAndPayload) {
  auto sc = one_flow_shard();
  pipeline::CellShard shard(std::move(sc));
  const std::vector<std::uint8_t> ok(100, 0xAB);
  const std::vector<std::uint8_t> huge(4096, 0xCD);
  EXPECT_THROW(shard.offer(5, ok), std::invalid_argument);
  EXPECT_THROW(shard.offer(0, huge), std::invalid_argument);
  EXPECT_TRUE(shard.offer(0, ok));
  EXPECT_TRUE(shard.has_work());
  EXPECT_FALSE(shard.idle());
  EXPECT_EQ(shard.ingest_depth(), 1u);
}

}  // namespace
}  // namespace vran
