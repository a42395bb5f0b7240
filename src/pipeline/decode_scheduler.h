// Cross-TB / cross-UE batched decode scheduler.
//
// PR 6's batched-lane turbo decoder wins ~2x when its SIMD lanes are
// full, but `phy_decode` could only group same-K blocks WITHIN one
// transport block — and the default workload segments every TB into
// c=3 mixed-K blocks, so the AVX-512 batch never filled. This layer
// promotes the grouping one level up: every code block of a TTI (all
// TBs of one pipeline; under BatchRunner, all UE flows of the batch)
// is submitted as a DecodeJob, grouped by batch key (K, ISA tier,
// iteration/CRC config), and dispatched as full lane groups.
//
// The scheduler is also the single routing authority for open item 1
// (ROADMAP): a block whose windowed decode would run approximate
// multi-window kernels with too little run-in per window
// (phy::windowed_window_too_short) is routed to the batched kernel
// unconditionally — the batched path runs exact full-K recursions at
// every width, so short blocks are never exposed to the window-boundary
// approximation, whether or not the flow asked for batching.
//
// Concurrency/allocation contract (matches phy_decode): submit() and
// the grouping + codec-cache resolution + staging carve inside run()
// happen on the driving thread; only the decode units are fanned out on
// the pool, and each unit touches disjoint staging and job slots. Job
// storage is grow-only and staging is carved from the caller's
// workspace arena, so a warm steady state schedules with zero heap
// allocations per TTI.
//
// Determinism: jobs are grouped in submission order and lane-group
// decoders are cached per first-job index, so group composition, cache
// layout, and (because batched decoding is bit-exact per block at every
// width) every hard-decision output are identical for any worker count
// — and identical to per-TB decoding of the same blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "arrange/arrange.h"
#include "common/cpu_features.h"
#include "common/threadpool.h"
#include "obs/metrics.h"
#include "obs/pmu.h"
#include "obs/trace.h"
#include "phy/turbo/turbo_batch.h"
#include "phy/turbo/turbo_decoder.h"
#include "pipeline/workspace.h"

namespace vran::pipeline {

/// Where one job's decode lands: filled by the scheduler, read by the
/// submitting pipeline's desegmentation phase.
struct DecodeOutcome {
  bool crc_ok = false;
  int iterations = 0;
};

/// One arranged code block awaiting turbo decode. All spans/pointers
/// stay owned by the submitting pipeline (arena-carved) and must remain
/// valid through run().
struct DecodeJob {
  int k = 0;
  IsaLevel isa = IsaLevel::kSse41;  ///< flow's tier cap (part of the key)
  int max_iterations = 6;
  bool crc_multi = false;  ///< multi-block TB: per-block CRC24B early stop
  arrange::Method arrange_method = arrange::Method::kApcm;  ///< cache key only
  /// Flow policy: batching requested and the tier has >1 lane group.
  /// Jobs with batch_ok false still batch when the windowed route would
  /// be unsafe for their K (small-K rerouting).
  bool batch_ok = false;
  bool force_full = false;  ///< fault injection: burn every iteration
  phy::TurboBatchInput in;  ///< arranged sys/p1/p2 streams (K+4 each)
  std::span<std::uint8_t> hard;  ///< K hard decisions out
  DecodeOutcome* out = nullptr;

  // Observability plumbing (the submitting flow's "turbo_decode" stage
  // handles; a batched group records its span/PMU scope under its first
  // job's identity and its per-block share of the group's wall time
  // into every member's histogram).
  obs::TraceRecorder* trace = nullptr;
  std::uint32_t tti = 0;
  std::int32_t block = -1;
  obs::Histogram* turbo_ns = nullptr;
  const obs::PmuStageCounters* pmu = nullptr;
};

class DecodeScheduler {
 public:
  /// Resolves the scheduler's own metric handles ("decode.batch_fill"
  /// per-group fill-percent histogram, "decode.smallk_rerouted"
  /// counter) once; nullptr disables them.
  explicit DecodeScheduler(obs::MetricsRegistry* metrics);

  /// Drop all pending jobs (start of a scheduling round).
  void begin() { jobs_.clear(); }

  /// Append jobs for one transport block / flow. Driving thread only.
  void submit(std::span<const DecodeJob> jobs);

  std::size_t pending() const { return jobs_.size(); }

  /// Group pending jobs, resolve decoders from `ws`'s per-lane caches,
  /// carve staging from `ws`'s arena, and decode every unit (batched
  /// lane groups + windowed singles) — via `pool` when given, inline
  /// otherwise. Outcomes land in each job's `out`/`hard`.
  void run(PipelineWorkspace& ws, ThreadPool* pool);

  /// Cumulative since construction. lanes_filled/lanes_available are in
  /// blocks: a group of 3 blocks on a 4-lane tier fills 3 of 4.
  struct Stats {
    std::uint64_t blocks = 0;          ///< jobs scheduled
    std::uint64_t batch_groups = 0;    ///< batched units dispatched
    std::uint64_t windowed_blocks = 0; ///< jobs routed to windowed decode
    std::uint64_t lanes_filled = 0;
    std::uint64_t lanes_available = 0;
    std::uint64_t smallk_rerouted = 0; ///< windowed-unsafe jobs forced batched
    /// Batched groups per block size K (grow-only; one node per distinct K).
    std::map<int, std::uint64_t> groups_per_k;

    double fill() const {
      return lanes_available == 0
                 ? 1.0
                 : double(lanes_filled) / double(lanes_available);
    }
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Unit;  // defined in decode_scheduler.cc

  std::vector<DecodeJob> jobs_;       ///< grow-only pending set
  std::vector<std::uint8_t> routed_;  ///< per-job group-assignment marks
  Stats stats_;
  obs::Histogram* batch_fill_pct_ = nullptr;
  obs::Counter* smallk_rerouted_ = nullptr;
};

}  // namespace vran::pipeline
