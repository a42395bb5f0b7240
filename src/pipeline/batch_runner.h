// Multi-packet / multi-UE batch driver.
//
// One cell serves many UEs per TTI; their transport blocks are completely
// independent, so the per-UE pipelines can run concurrently on a worker
// pool — the cross-packet counterpart of the per-code-block parallelism
// inside a single pipeline (paper Fig. 16 scales exactly this
// data-arrangement + turbo-decode workload across cores).
//
// Concurrency model: the runner owns one pipeline per flow and a shared
// ThreadPool. A run_tti() call hands each flow's packet to that flow's
// pipeline on some worker; a pipeline is touched by at most one worker
// per phase (flows are the parallel index), so pipelines need no internal
// locking. Flow pipelines are forced to num_workers = 1 — nesting
// per-code-block workers under per-flow workers would oversubscribe the
// cores without adding parallelism. Results stay per-flow; stage times
// land in the flows' configured registries ("stage.<key>_ns").
//
// Determinism: every flow's pipeline consumes only its own packet and its
// own noise stream, so results are bit-identical to driving the flows
// sequentially, for any worker count.
//
// Cross-TB batched decode (uplink): instead of each flow decoding its own
// code blocks inside send_packet, the runner drives the flows through the
// staged TTI API (pipeline.h) and funnels every active flow's arranged
// blocks into ONE shared DecodeScheduler round per transmission. Same-K
// blocks from different UEs then share SIMD lane groups — the cross-UE
// aggregation of the paper's batching idea — while per-flow HARQ state,
// noise streams and CRC semantics stay with their pipelines. Because the
// batched kernel is bit-exact per block at every width and grouping never
// reorders a block's own data, egress bytes and HARQ counters are
// identical to per-TB decoding for any flow mix and worker count; only
// the grouping (and thus throughput) changes. Downlink runners call each
// flow's send_packet.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/threadpool.h"
#include "pipeline/pipeline.h"

namespace vran::pipeline {

class BatchRunner {
 public:
  enum class Direction { kUplink, kDownlink };

  /// One pipeline per entry of `flow_cfgs` (a flow = one UE's RNTI,
  /// MCS, ...). `num_workers` is the TOTAL concurrency including the
  /// calling thread; 1 runs the flows sequentially on the caller.
  BatchRunner(Direction dir, std::vector<PipelineConfig> flow_cfgs,
              int num_workers);

  std::size_t flows() const { return configs_.size(); }
  int num_workers() const { return num_workers_; }
  const PipelineConfig& flow_config(std::size_t flow) const {
    return configs_.at(flow);
  }

  /// Drive one TTI: packets[f] goes through flow f's pipeline (an empty
  /// packet marks the flow idle this TTI and yields a default
  /// PacketResult). packets.size() must equal flows().
  ///
  /// Observability (recorded into flow 0's configured registry): the TTI
  /// wall time feeds "batch.tti_ns", each flow's packet latency feeds
  /// "batch.flow<f>.latency_ns" (the p50/p95/p99 source for per-flow
  /// latency), and "batch.packets"/"batch.delivered" count outcomes.
  /// Per-flow histograms are recorded after the join, so totals are
  /// exact for any worker count.
  std::vector<PacketResult> run_tti(
      const std::vector<std::vector<std::uint8_t>>& packets);

  /// Allocation-light variant for benchmark loops: writes into a caller-
  /// owned result vector (resized to flows(); entries reset per call) so
  /// steady-state TTIs reuse its storage instead of building a fresh
  /// vector per call.
  void run_tti(const std::vector<std::vector<std::uint8_t>>& packets,
               std::vector<PacketResult>& results);

  /// Degrade every uplink flow's quality knobs (HARQ transmission budget
  /// + turbo iteration cap) for subsequent TTIs — the deadline
  /// scheduler's ladder (see pipeline/cell_shard.h). Must be called
  /// between run_tti() calls; no-op for downlink runners.
  void set_quality(int harq_max_tx, int max_turbo_iterations);

  /// The shared cross-UE scheduler (its Stats expose lane fill and
  /// per-K group counts); nullptr for downlink runners.
  const DecodeScheduler* decode_scheduler() const { return sched_.get(); }

 private:
  void run_tti_cross(const std::vector<std::vector<std::uint8_t>>& packets,
                     std::vector<PacketResult>& results);

  Direction dir_;
  int num_workers_;
  std::vector<PipelineConfig> configs_;
  std::vector<std::unique_ptr<UplinkPipeline>> uplinks_;
  std::vector<std::unique_ptr<DownlinkPipeline>> downlinks_;
  std::unique_ptr<ThreadPool> pool_;  ///< nullptr when num_workers <= 1

  // Cross-TB batching state (uplink only; null for downlink). The
  // scheduler's staging and lane-group decoder caches live in a
  // runner-owned workspace so cross-flow groups never touch a single
  // flow's arena; job buffers they point INTO stay flow-owned.
  std::unique_ptr<DecodeScheduler> sched_;
  std::unique_ptr<PipelineWorkspace> sched_ws_;
  std::vector<std::uint8_t> active_;  ///< per-flow in-flight marks (grow-only)

  // Metric handles (null when flow 0 disabled metrics).
  obs::Histogram* tti_ns_ = nullptr;
  std::vector<obs::Histogram*> flow_latency_ns_;
  obs::Counter* packets_ = nullptr;
  obs::Counter* delivered_ = nullptr;
};

}  // namespace vran::pipeline
