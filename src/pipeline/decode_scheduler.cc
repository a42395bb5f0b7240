#include "pipeline/decode_scheduler.h"

#include <algorithm>

#include "common/timer.h"
#include "pipeline/pipeline.h"

namespace vran::pipeline {

namespace {

std::uint64_t to_ns(double seconds) {
  return seconds <= 0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
}

/// One job's grouping identity: only jobs agreeing on all four may share
/// a batched kernel call (the batch decoder is constructed per (K, tier,
/// iterations, CRC) and early-stop voting assumes one CRC policy).
bool same_key(const DecodeJob& a, const DecodeJob& b) {
  return a.k == b.k && a.isa == b.isa &&
         a.max_iterations == b.max_iterations && a.crc_multi == b.crc_multi;
}

}  // namespace

/// One dispatchable decode unit: either a batched lane group (bdec set;
/// contiguous staging subspans gathered from possibly non-contiguous
/// jobs) or a single windowed block (wdec set).
struct DecodeScheduler::Unit {
  phy::TurboBatchDecoder* bdec = nullptr;
  std::span<phy::TurboBatchInput> in;
  std::span<std::span<std::uint8_t>> outs;
  std::span<phy::TurboBatchResult> res;
  std::span<std::uint8_t> force;
  std::span<std::size_t> members;  ///< job indices, submission order

  phy::TurboDecoder* wdec = nullptr;
  std::size_t job = 0;
};

DecodeScheduler::DecodeScheduler(obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    batch_fill_pct_ = &metrics->histogram("decode.batch_fill");
    smallk_rerouted_ = &metrics->counter("decode.smallk_rerouted");
  }
}

void DecodeScheduler::submit(std::span<const DecodeJob> jobs) {
  jobs_.insert(jobs_.end(), jobs.begin(), jobs.end());
}

void DecodeScheduler::run(PipelineWorkspace& ws, ThreadPool* pool) {
  const std::size_t n = jobs_.size();
  if (n == 0) return;
  MonotonicArena& arena = ws.arena();
  stats_.blocks += n;

  // Routing (driving thread): a job batches when its flow asked for it
  // OR when the windowed kernel would be unsafe for its K at its tier
  // (small-K rerouting — the fix for ROADMAP open item 1).
  routed_.assign(n, 0);
  std::size_t n_batched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const DecodeJob& j = jobs_[i];
    const bool unsafe = phy::windowed_window_too_short(j.k, j.isa);
    if (j.batch_ok || unsafe) {
      ++n_batched;
      if (!j.batch_ok) {
        ++stats_.smallk_rerouted;
        if (smallk_rerouted_ != nullptr) smallk_rerouted_->add();
      }
    } else {
      routed_[i] = 2;  // windowed
    }
  }

  // Staging: contiguous arrays sized for every batched job, carved once;
  // each group takes the next subspan. Units upper-bound at one per job.
  const auto units = arena.make_object_span<Unit>(n);
  const auto b_in = arena.make_object_span<phy::TurboBatchInput>(n_batched);
  const auto b_outs =
      arena.make_span<std::span<std::uint8_t>>(n_batched);
  const auto b_res = arena.make_object_span<phy::TurboBatchResult>(n_batched);
  const auto b_force = arena.make_zero_span<std::uint8_t>(n_batched);
  const auto b_members = arena.make_span<std::size_t>(n_batched);

  // Grouping + codec resolution (driving thread, submission order).
  // Decoders come from the workspace's per-lane caches keyed by the
  // group's FIRST job index — the same lane a per-TB schedule would
  // use, so cache layout and warmup are identical across modes.
  std::size_t n_units = 0;
  std::size_t staged = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (routed_[i] == 1) continue;  // already grouped
    Unit& u = units[n_units];
    const DecodeJob& j0 = jobs_[i];
    const DecoderSpec spec{j0.arrange_method, j0.isa, j0.max_iterations,
                           j0.crc_multi};
    if (routed_[i] == 2) {
      u.wdec = &ws.lane(i).decoder(j0.k, spec);
      u.job = i;
      ++stats_.windowed_blocks;
      ++n_units;
      continue;
    }
    const std::size_t cap = static_cast<std::size_t>(
        phy::TurboBatchDecoder::lane_capacity(j0.isa));
    const std::size_t first = staged;
    for (std::size_t c = i; c < n && staged - first < cap; ++c) {
      // routed_ == 0 implies batch-routed (windowed jobs were marked 2).
      if (routed_[c] != 0 || !same_key(j0, jobs_[c])) continue;
      routed_[c] = 1;
      const DecodeJob& jc = jobs_[c];
      b_in[staged] = jc.in;
      b_outs[staged] = jc.hard;
      b_force[staged] = jc.force_full ? 1 : 0;
      b_members[staged] = c;
      ++staged;
    }
    const std::size_t count = staged - first;
    u.bdec = &ws.lane(i).batch_decoder(j0.k, spec);
    u.in = b_in.subspan(first, count);
    u.outs = b_outs.subspan(first, count);
    u.res = b_res.subspan(first, count);
    u.force = b_force.subspan(first, count);
    u.members = b_members.subspan(first, count);
    ++n_units;
    ++stats_.batch_groups;
    stats_.lanes_filled += count;
    stats_.lanes_available += cap;
    ++stats_.groups_per_k[j0.k];  // one node per distinct K, then alloc-free
    if (batch_fill_pct_ != nullptr) {
      batch_fill_pct_->record(100 * count / cap);
    }
  }

  const char* const span_name = stage_info(Stage::kTurboDecode).key;
  const auto run_unit = [&](std::size_t ui) {
    const Unit& u = units[ui];
    const auto tid = ThreadPool::current_worker_id();
    if (u.bdec != nullptr) {
      DecodeJob& j0 = jobs_[u.members[0]];
      Stopwatch sw;
      {
        obs::ScopedSpan span(j0.trace, span_name, j0.tti, j0.block, tid);
        obs::PmuScope pmu(j0.pmu);
        u.bdec->decode_arranged(
            std::span<const phy::TurboBatchInput>(u.in),
            std::span<const std::span<std::uint8_t>>(u.outs), u.res,
            std::span<const std::uint8_t>(u.force));
      }
      // Wall clock split evenly across the group's blocks, exactly like
      // the per-TB batch accounting it replaces.
      const double share = sw.seconds() / static_cast<double>(u.members.size());
      for (std::size_t b = 0; b < u.members.size(); ++b) {
        const DecodeJob& j = jobs_[u.members[b]];
        j.out->crc_ok = u.res[b].crc_ok;
        j.out->iterations = u.res[b].iterations;
        if (j.turbo_ns != nullptr) j.turbo_ns->record(to_ns(share));
      }
    } else {
      const DecodeJob& j = jobs_[u.job];
      phy::TurboDecodeResult r;
      {
        obs::ScopedSpan span(j.trace, span_name, j.tti, j.block, tid);
        obs::PmuScope pmu(j.pmu);
        r = u.wdec->decode_arranged(j.in.sys, j.in.p1, j.in.p2, j.hard,
                                    j.force_full);
      }
      j.out->crc_ok = r.crc_ok;
      j.out->iterations = r.iterations;
      if (j.turbo_ns != nullptr) j.turbo_ns->record(to_ns(r.compute_seconds));
    }
  };

  if (pool != nullptr && n_units > 1) {
    pool->parallel_for(0, n_units, run_unit);
  } else {
    for (std::size_t ui = 0; ui < n_units; ++ui) run_unit(ui);
  }
  jobs_.clear();
}

}  // namespace vran::pipeline
