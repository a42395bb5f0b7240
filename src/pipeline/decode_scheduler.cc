#include "pipeline/decode_scheduler.h"

#include <algorithm>
#include <bit>
#include <tuple>

#include "common/timer.h"
#include "pipeline/pipeline.h"

namespace vran::pipeline {

namespace {

/// Least share of a leftover group's lane steps (lanes x its longest K)
/// that its blocks must fill; a sparser group is not formed and its
/// longest block decodes alone. fig09 puts a 4-lane group at 1.3-1.7x
/// the cost of one lane at its longest K, so below a fill of about
/// 0.33-0.43 it costs more than its blocks one by one (EXPERIMENTS.md,
/// "Mixed-K lane groups"). A 2-lane group costs about 1.03x and always
/// fills at least half, so it is never split.
constexpr double kMinGroupFill = 0.4;

std::uint64_t to_ns(double seconds) {
  return seconds <= 0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
}

/// One job's grouping identity: only jobs agreeing on all three may share
/// a batched kernel call (the batch decoder is constructed per (tier,
/// iterations, CRC) and early-stop voting assumes one CRC policy). K is
/// not part of it: a group may mix block sizes.
auto group_key(const DecodeJob& j) {
  return std::make_tuple(static_cast<int>(j.isa), j.max_iterations,
                         j.crc_multi);
}

}  // namespace

/// One dispatchable lane group: contiguous staging subspans gathered
/// from possibly non-contiguous jobs.
struct DecodeScheduler::Unit {
  phy::TurboBatchDecoder* dec = nullptr;
  std::span<phy::TurboBatchInput> in;
  std::span<std::span<std::uint8_t>> outs;
  std::span<phy::TurboBatchResult> res;
  std::span<std::uint8_t> force;
  std::span<std::size_t> members;  ///< job indices, lane order
  double steps = 0;                ///< sum of the members' K
};

DecodeScheduler::DecodeScheduler(obs::MetricsRegistry* metrics) {
  if (metrics != nullptr) {
    batch_fill_pct_ = &metrics->histogram("decode.batch_fill");
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

  // Staging: contiguous arrays sized for every job, carved once; each
  // group takes the next subspan. Units upper-bound at one per job.
  const auto units = arena.make_object_span<Unit>(n);
  const auto b_in = arena.make_object_span<phy::TurboBatchInput>(n);
  const auto b_outs = arena.make_span<std::span<std::uint8_t>>(n);
  const auto b_res = arena.make_object_span<phy::TurboBatchResult>(n);
  const auto b_force = arena.make_zero_span<std::uint8_t>(n);
  const auto b_members = arena.make_span<std::size_t>(n);
  const auto leftovers = arena.make_span<std::size_t>(n);

  // Grouping + decoder resolution (driving thread). Unit u decodes with
  // slot u's decoder, so decoder layout and warmup follow the grouping
  // alone, never the worker count.
  std::size_t n_units = 0;
  std::size_t staged = 0;
  std::size_t first = 0;  ///< staging index of the open group's first job
  const auto capacity = [](const DecodeJob& j) {
    return static_cast<std::size_t>(
        phy::TurboBatchDecoder::lane_capacity(j.isa));
  };
  const auto stage = [&](std::size_t c) {
    const DecodeJob& jc = jobs_[c];
    routed_[c] = 1;
    b_in[staged] = jc.in;
    b_outs[staged] = jc.hard;
    b_force[staged] = jc.force_full ? 1 : 0;
    b_members[staged] = c;
    ++staged;
  };
  const auto close_group = [&]() {
    const std::size_t count = staged - first;
    const DecodeJob& j0 = jobs_[b_members[first]];
    const std::size_t cap = capacity(j0);
    Unit& u = units[n_units];
    u.dec = &ws.lane(n_units).batch_decoder(
        DecoderSpec{j0.isa, j0.max_iterations, j0.crc_multi});
    u.in = b_in.subspan(first, count);
    u.outs = b_outs.subspan(first, count);
    u.res = b_res.subspan(first, count);
    u.force = b_force.subspan(first, count);
    u.members = b_members.subspan(first, count);
    bool mixed = false;
    for (const std::size_t c : u.members) {
      u.steps += jobs_[c].k;
      mixed = mixed || jobs_[c].k != j0.k;
    }
    ++n_units;
    ++stats_.batch_groups;
    if (mixed) ++stats_.mixed_groups;
    stats_.lanes_filled += count;
    stats_.lanes_available += cap;
    if (batch_fill_pct_ != nullptr) {
      batch_fill_pct_->record(100 * count / cap);
    }
    first = staged;
  };

  // 1. Full same-K groups, in submission order. Jobs of a K that cannot
  //    fill another group are left over (mark 2).
  routed_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (routed_[i] != 0) continue;
    const DecodeJob& j0 = jobs_[i];
    const std::size_t cap = capacity(j0);
    const auto same = [&](std::size_t c) {
      return routed_[c] == 0 && jobs_[c].k == j0.k &&
             group_key(jobs_[c]) == group_key(j0);
    };
    std::size_t found = 0;
    for (std::size_t c = i; c < n; ++c) found += same(c) ? 1 : 0;
    std::size_t full = found - found % cap;
    for (std::size_t c = i; c < n; ++c) {
      if (!same(c)) continue;
      if (full == 0) {
        routed_[c] = 2;
        continue;
      }
      stage(c);
      --full;
      if (staged - first == cap) close_group();
    }
  }

  // 2. Leftovers by key, then K descending, then submission order,
  //    packed into groups of lane capacity. A group whose blocks fill
  //    less than kMinGroupFill of the lanes its kernel runs (the block
  //    count rounded up to a power of two) shrinks to its longest block.
  std::size_t n_left = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (routed_[i] == 2) leftovers[n_left++] = i;
  }
  const auto left = leftovers.first(n_left);
  std::sort(left.begin(), left.end(), [&](std::size_t a, std::size_t b) {
    return std::make_tuple(group_key(jobs_[a]), -jobs_[a].k, a) <
           std::make_tuple(group_key(jobs_[b]), -jobs_[b].k, b);
  });
  for (std::size_t i = 0; i < n_left;) {
    const DecodeJob& j0 = jobs_[left[i]];
    std::size_t end = i + 1;
    double steps = j0.k;
    while (end < n_left && end - i < capacity(j0) &&
           group_key(jobs_[left[end]]) == group_key(j0)) {
      steps += jobs_[left[end++]].k;
    }
    if (steps < kMinGroupFill * double(std::bit_ceil(end - i)) * j0.k) {
      end = i + 1;
    }
    for (; i < end; ++i) stage(left[i]);
    close_group();
  }

  const char* const span_name = stage_info(Stage::kTurboDecode).key;
  const auto run_unit = [&](std::size_t ui) {
    const Unit& u = units[ui];
    const auto tid = ThreadPool::current_worker_id();
    DecodeJob& j0 = jobs_[u.members[0]];
    Stopwatch sw;
    {
      obs::ScopedSpan span(j0.trace, span_name, j0.tti, j0.block, tid);
      obs::PmuScope pmu(j0.pmu);
      u.dec->decode_arranged(std::span<const phy::TurboBatchInput>(u.in),
                             std::span<const std::span<std::uint8_t>>(u.outs),
                             u.res, std::span<const std::uint8_t>(u.force));
    }
    // Wall clock split across the group's blocks in proportion to K: a
    // block's share of the trellis steps the group ran.
    const double per_step = sw.seconds() / u.steps;
    for (std::size_t b = 0; b < u.members.size(); ++b) {
      const DecodeJob& j = jobs_[u.members[b]];
      j.out->crc_ok = u.res[b].crc_ok;
      j.out->iterations = u.res[b].iterations;
      if (j.turbo_ns != nullptr) j.turbo_ns->record(to_ns(per_step * j.k));
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
