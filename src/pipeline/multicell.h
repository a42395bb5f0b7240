// Multi-cell scale-out runtime: N CellShards drained by a worker pool,
// fed by a calibrated open-loop load generator (DESIGN.md §6).
//
// Topology:
//
//   LoadGenerator (1 producer thread)
//     | offer()                      ^ recycle ring (spent handles)
//     v                              |
//   CellShard[0..cells) -- ingest SpscRing + PacketPool each
//     ^ try_claim / run_tti / release
//   worker threads [0..workers)
//
// Each worker owns a HOME set of shards (round-robin by index: shard i
// belongs to worker i % workers) and drains them in order. When every
// home shard's ring runs dry and stealing is enabled, the worker scans
// ALL shards and drains any with backlog — the claim flag on each shard
// makes this safe (one drainer at a time, acquire-release handoff), and
// per-flow determinism survives because packets are consumed in ring
// order regardless of WHICH worker pops them (cell_shard.h).
//
// The deadline scheduler lives inside each shard (degrade ladder +
// drop); this layer only decides who drains what, so scheduling policy
// stays testable on a lone shard.
//
// Thread roles — matching the mempool single-thread contract:
//   * exactly one producer thread calls offer()/recycle_all()/drain()
//     (pool alloc + free both happen here);
//   * workers only pop ingest rings, run TTIs, and push spent handles
//     onto recycle rings.
//
// Idle workers block on a doorbell that every accepted offer() rings,
// with a 50 us timeout as a fallback poll. A packet therefore starts as
// soon as a worker wakes, not at the worker's next fixed-period poll:
// a poll that restarts when the previous TTI ends locks its phase to a
// periodic producer, and the wait it adds then depends on where a run
// happened to start.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/telemetry.h"
#include "pipeline/cell_shard.h"

namespace vran::pipeline {

struct MultiCellConfig {
  int cells = 4;
  int flows_per_cell = 32;
  /// Drain workers (threads). Home shards are dealt round-robin.
  int workers = 2;
  /// Cross-cell work stealing when a worker's home rings run dry.
  bool steal = true;
  /// Pin worker w to CPU w % hw_concurrency (Linux only; no-op
  /// elsewhere). Off by default: the CI hosts are single-core.
  bool pin_workers = false;
  /// Per-shard deadline scheduling (see cell_shard.h). The remaining
  /// fields mirror CellShardConfig and are applied per shard.
  bool degrade = true;
  std::uint64_t tti_budget_ns = 1'000'000;
  double recover_fraction = 0.5;
  int drop_after_misses = 3;
  std::size_t ring_capacity = 256;
  std::size_t pool_buffers = 0;  ///< 0 = 2 * ring_capacity
  std::size_t buffer_bytes = 2048;
  int alloc_retries = 8;
  std::int64_t alloc_backoff_budget_us = 20;
  /// Template for every flow's pipeline; per-flow identity (rnti,
  /// cell_id, teid, noise_seed) is derived by flow_config(). The
  /// template's `metrics` is ignored — shards install their own.
  PipelineConfig flow_template;
  fault::FaultInjector* fault = nullptr;

  /// Live telemetry (DESIGN.md §8). When enabled the runner owns a
  /// TelemetryPublisher sampling every cell's registry (sources "cell0",
  /// "cell1", ... plus "runner") and, when `flight` is also set, gives
  /// every shard a TTI flight recorder the publisher polls for
  /// deadline-miss postmortems. All of it is observer-only: workers
  /// never block on the publisher.
  struct Telemetry {
    bool enabled = false;
    /// Unix socket the publisher serves; empty = sample-only (vran_top
    /// has nothing to connect to, but flight recorders still dump).
    std::string socket_path;
    int period_ms = 100;
    /// Per-cell flight recorders (obs/flight_recorder.h).
    bool flight = true;
    /// Postmortem JSON directory; empty = capture-only.
    std::string postmortem_dir;
    std::size_t flight_capacity = 256;
    int window_before = 8;
    int window_after = 4;
    int max_dumps = 8;
    std::int64_t min_dump_interval_ms = 500;
  };
  Telemetry telemetry;
};

class MultiCellRunner {
 public:
  explicit MultiCellRunner(MultiCellConfig cfg);
  ~MultiCellRunner();  ///< stops workers if still running

  MultiCellRunner(const MultiCellRunner&) = delete;
  MultiCellRunner& operator=(const MultiCellRunner&) = delete;

  /// The exact per-flow config a shard runs — exposed so bit-identity
  /// tests can drive the same config through a lone sequential pipeline.
  static PipelineConfig flow_config(const MultiCellConfig& cfg, int cell,
                                    int flow);

  int cells() const { return static_cast<int>(shards_.size()); }
  CellShard& shard(int cell) { return *shards_.at(cell); }
  const CellShard& shard(int cell) const { return *shards_.at(cell); }
  /// nullptr unless cfg.telemetry.enabled.
  obs::TelemetryPublisher* telemetry() { return publisher_.get(); }
  /// Runner-level registry ("runner.steals"), sampled as source
  /// "runner" by the publisher.
  obs::MetricsRegistry& runner_metrics() { return runner_reg_; }

  void start();  ///< spawn workers (idempotent)
  void stop();   ///< join workers (idempotent); shards keep their stats

  // --- Producer-thread API. ------------------------------------------
  /// Stage one packet on `cell` and wake idle workers. Pushing through
  /// shard(cell).offer() directly skips the wake-up: the packet then
  /// waits for a worker's fallback poll.
  bool offer(int cell, int flow, std::span<const std::uint8_t> payload) {
    if (!shards_.at(cell)->offer(static_cast<std::size_t>(flow), payload)) {
      return false;
    }
    ring_doorbell();
    return true;
  }
  void recycle_all() {
    for (auto& s : shards_) s->recycle();
  }
  std::size_t backlog() const;
  /// Block (recycling) until every shard is idle or `timeout_ms` passes.
  /// Workers must be running. Returns true when fully drained.
  bool drain(int timeout_ms);

  struct Totals {
    std::uint64_t ttis = 0;
    std::uint64_t packets = 0;
    std::uint64_t deadline_miss = 0;
    std::uint64_t degraded = 0;
    std::uint64_t dropped_ttis = 0;
    std::uint64_t dropped_packets = 0;
    std::uint64_t offer_fails = 0;
    std::uint64_t steals = 0;  ///< TTIs run by a non-home worker
  };
  /// Exact after stop() or a successful drain() (shard stats are
  /// quiesced reads; see CellShard::stats).
  Totals totals() const;

  /// Merge of every shard's "cell.tti_ns" histogram — the host-wide TTI
  /// latency distribution (p99.9 feeds the soak bench gate).
  obs::HistogramStats tti_histogram();

 private:
  void worker_loop(int w);
  bool try_drain(CellShard& shard, bool stolen);
  /// Bump the doorbell and wake the workers blocked on it.
  void ring_doorbell();

  MultiCellConfig cfg_;
  std::vector<std::unique_ptr<CellShard>> shards_;
  std::vector<std::thread> threads_;
  std::atomic<bool> running_{false};
  /// Counts accepted offers (and stop()); idle workers sleep while it
  /// holds the value they last scanned under.
  std::atomic<std::uint32_t> doorbell_{0};
  std::atomic<int> sleepers_{0};  ///< workers blocked on doorbell_
  std::atomic<std::uint64_t> steals_{0};
  obs::MetricsRegistry runner_reg_;
  obs::Counter& c_steals_ = runner_reg_.counter("runner.steals");
  std::unique_ptr<obs::TelemetryPublisher> publisher_;
};

/// Calibrated open-loop source: emits packets on the ideal schedule
/// t_k = k / rate_pps regardless of how the runner keeps up (the
/// producer never blocks on the system under test — offer() failures are
/// drops, not back-pressure). One thread, round-robin over (cell, flow),
/// one deterministic PacketGenerator per flow.
class LoadGenerator {
 public:
  struct Config {
    double rate_pps = 8000;   ///< total across all cells
    double seconds = 1.0;     ///< open-loop emission window
    int packet_bytes = 400;   ///< on-the-wire size per packet
    std::uint64_t seed = 1;
  };
  struct Stats {
    std::uint64_t offered = 0;   ///< schedule slots fired
    std::uint64_t accepted = 0;  ///< offer() == true
    std::uint64_t dropped = 0;   ///< shed at the door (pool/ring full)
    double elapsed_s = 0.0;      ///< wall time of the emission loop
  };

  /// Run the open-loop schedule against `runner` from the CALLING thread
  /// (which becomes the producer thread for every shard's pool), then
  /// drain. Workers must already be started.
  static Stats run(MultiCellRunner& runner, const Config& cfg,
                   int drain_timeout_ms = 5000);
};

}  // namespace vran::pipeline
