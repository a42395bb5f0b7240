// Cross-TB / cross-UE batched decode scheduler: the single turbo decode
// route of the pipeline.
//
// The batched-lane turbo decoder wins when its SIMD lanes are full, and
// one transport block rarely fills them. This layer promotes the grouping
// one level up: every code block of a TTI (all TBs of one pipeline;
// under BatchRunner, all UE flows of the batch) is submitted as a
// DecodeJob, grouped by batch key (ISA tier, iteration cap, CRC policy)
// and dispatched as lane groups of the K-agnostic batch decoder, which
// decodes blocks of different K side by side (phy/turbo/turbo_batch.h).
//
// Packing order: full groups of one K form first, in submission order,
// so same-K traffic keeps the decoder's one-copy interleaver path. The
// remaining jobs are sorted by key, then K descending (ties in
// submission order), and packed into groups of lane capacity, so each
// mixed group pads its shorter blocks as little as the mix allows. A
// group runs its longest block's K in every lane, and fig09 measured a
// 4-lane group at 1.3-1.7x the time of one lane at that K, so a group
// whose blocks fill less than 0.4 of its lanes' steps (kMinGroupFill,
// e.g. K {5056, 40, 40, 40}) costs more than its blocks one by one: its
// longest block decodes alone instead, and packing resumes with the
// next. Two lanes always fill at least half, so only 3-4-block groups
// are ever split.
//
// Concurrency/allocation contract (matches phy_decode): submit() and
// the grouping + decoder resolution + staging carve inside run() happen
// on the driving thread; only the decode units are fanned out on the
// pool, and each unit touches disjoint staging and job slots. Job
// storage is grow-only and staging is carved from the caller's
// workspace arena, so a warm steady state schedules with zero heap
// allocations per TTI, whatever its block sizes.
//
// Determinism: grouping depends only on the submitted jobs, and unit u
// always decodes with slot u's decoder, so group composition, decoder
// layout, and (because batched decoding is bit-exact per block at every
// width and for any group mix) every hard-decision output are identical
// for any worker count — and identical to per-TB decoding of the same
// blocks.
#pragma once

#include <cstddef>
#include <cstdint>
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
  /// Inert: read by no scheduler code since every job decodes on the one
  /// batched route. Kept until the benchmark's frozen replay stops
  /// setting it.
  arrange::Method arrange_method = arrange::Method::kApcm;
  /// Inert, as arrange_method.
  bool batch_ok = false;
  bool force_full = false;  ///< fault injection: burn every iteration
  phy::TurboBatchInput in;  ///< arranged sys/p1/p2 streams (K+4 each)
  std::span<std::uint8_t> hard;  ///< K hard decisions out
  DecodeOutcome* out = nullptr;

  // Observability plumbing (the submitting flow's "turbo_decode" stage
  // handles; a batched group records its span/PMU scope under its first
  // job's identity and each member's K-proportional share of the group's
  // wall time into that member's histogram).
  obs::TraceRecorder* trace = nullptr;
  std::uint32_t tti = 0;
  std::int32_t block = -1;
  obs::Histogram* turbo_ns = nullptr;
  const obs::PmuStageCounters* pmu = nullptr;
};

class DecodeScheduler {
 public:
  /// Resolves the scheduler's own metric handle ("decode.batch_fill"
  /// per-group fill-percent histogram) once; nullptr disables it.
  explicit DecodeScheduler(obs::MetricsRegistry* metrics);

  /// Drop all pending jobs (start of a scheduling round).
  void begin() { jobs_.clear(); }

  /// Append jobs for one transport block / flow. Driving thread only.
  void submit(std::span<const DecodeJob> jobs);

  std::size_t pending() const { return jobs_.size(); }

  /// Group pending jobs, resolve decoders from `ws`'s per-slot caches,
  /// carve staging from `ws`'s arena, and decode every lane group — via
  /// `pool` when given, inline otherwise. Outcomes land in each job's
  /// `out`/`hard`.
  void run(PipelineWorkspace& ws, ThreadPool* pool);

  /// Cumulative since construction. lanes_filled/lanes_available are in
  /// blocks: a group of 3 blocks on a 4-lane tier fills 3 of 4.
  struct Stats {
    std::uint64_t blocks = 0;          ///< jobs scheduled
    std::uint64_t batch_groups = 0;    ///< lane groups dispatched
    std::uint64_t mixed_groups = 0;    ///< groups whose blocks differ in K
    std::uint64_t lanes_filled = 0;
    std::uint64_t lanes_available = 0;
    /// Inert, always 0: the windowed route and its small-K reroute are
    /// gone. Kept until the benchmark's frozen report stops reading them.
    std::uint64_t windowed_blocks = 0;
    std::uint64_t smallk_rerouted = 0;

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
  std::vector<std::uint8_t> routed_;  ///< per-job grouping marks
  Stats stats_;
  obs::Histogram* batch_fill_pct_ = nullptr;
};

}  // namespace vran::pipeline
