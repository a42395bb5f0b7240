#include "pipeline/batch_runner.h"

#include <stdexcept>
#include <string>

#include "common/alloc_stats.h"
#include "common/timer.h"

namespace vran::pipeline {

BatchRunner::BatchRunner(Direction dir, std::vector<PipelineConfig> flow_cfgs,
                         int num_workers)
    : dir_(dir),
      num_workers_(num_workers < 1 ? 1 : num_workers),
      configs_(std::move(flow_cfgs)) {
  if (configs_.empty()) {
    throw std::invalid_argument("BatchRunner: no flows");
  }
  for (auto& cfg : configs_) {
    cfg.num_workers = 1;  // flows are the parallel index; see header
    if (dir_ == Direction::kUplink) {
      uplinks_.push_back(std::make_unique<UplinkPipeline>(cfg));
    } else {
      downlinks_.push_back(std::make_unique<DownlinkPipeline>(cfg));
    }
  }
  if (dir_ == Direction::kUplink) {
    sched_ = std::make_unique<DecodeScheduler>(configs_.front().metrics);
    sched_ws_ = std::make_unique<PipelineWorkspace>(
        configs_.front().codec_cache_capacity);
  }
  if (num_workers_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_workers_ - 1,
                                         configs_.front().metrics,
                                         configs_.front().fault,
                                         configs_.front().pmu);
  }
  if (obs::MetricsRegistry* m = configs_.front().metrics; m != nullptr) {
    tti_ns_ = &m->histogram("batch.tti_ns");
    packets_ = &m->counter("batch.packets");
    delivered_ = &m->counter("batch.delivered");
    flow_latency_ns_.reserve(configs_.size());
    for (std::size_t f = 0; f < configs_.size(); ++f) {
      flow_latency_ns_.push_back(
          &m->histogram("batch.flow" + std::to_string(f) + ".latency_ns"));
    }
  }
}

std::vector<PacketResult> BatchRunner::run_tti(
    const std::vector<std::vector<std::uint8_t>>& packets) {
  std::vector<PacketResult> results;
  run_tti(packets, results);
  return results;
}

void BatchRunner::run_tti(
    const std::vector<std::vector<std::uint8_t>>& packets,
    std::vector<PacketResult>& results) {
  if (packets.size() != flows()) {
    throw std::invalid_argument("BatchRunner::run_tti: one packet per flow");
  }
  results.resize(flows());
  for (auto& r : results) r = PacketResult{};
  Stopwatch tti_sw;
  if (dir_ == Direction::kUplink) {
    run_tti_cross(packets, results);
  } else {
    const auto run_flow = [&](std::size_t f) {
      if (packets[f].empty()) return;  // idle flow this TTI
      results[f] = downlinks_[f]->send_packet(packets[f]);
    };
    if (pool_ != nullptr && flows() > 1) {
      pool_->parallel_for(0, flows(), run_flow);
    } else {
      for (std::size_t f = 0; f < flows(); ++f) run_flow(f);
    }
  }
  if (tti_ns_ != nullptr) {
    tti_ns_->record(static_cast<std::uint64_t>(tti_sw.seconds() * 1e9));
    for (std::size_t f = 0; f < flows(); ++f) {
      if (packets[f].empty()) continue;
      packets_->add();
      if (results[f].delivered) delivered_->add();
      flow_latency_ns_[f]->record(
          static_cast<std::uint64_t>(results[f].latency_seconds * 1e9));
    }
  }
}

// One TTI through the staged pipeline API: every active flow advances
// phase-by-phase, and between transmit and collect all pending decode
// jobs run through the shared scheduler so same-K blocks from different
// UEs fill SIMD lane groups together. HARQ keeps flows in the round loop
// for different transmission counts; a flow leaves as soon as its TB
// passes CRC or its budget runs out.
void BatchRunner::run_tti_cross(
    const std::vector<std::vector<std::uint8_t>>& packets,
    std::vector<PacketResult>& results) {
  active_.assign(flows(), 0);
  std::size_t n_active = 0;
  for (std::size_t f = 0; f < flows(); ++f) {
    if (!packets[f].empty()) {
      active_[f] = 1;
      ++n_active;
    }
  }
  if (n_active == 0) return;

  const auto for_active = [&](auto&& body) {
    const auto guarded = [&](std::size_t f) {
      if (active_[f] != 0) body(f);
    };
    if (pool_ != nullptr && n_active > 1) {
      pool_->parallel_for(0, flows(), guarded);
    } else {
      for (std::size_t f = 0; f < flows(); ++f) guarded(f);
    }
  };

  for_active([&](std::size_t f) { uplinks_[f]->tti_begin(packets[f]); });

  // One arena frame per TTI for the scheduler's staging; HARQ rounds
  // within the TTI carve monotonically and the next TTI rewinds it.
  sched_ws_->arena().reset();
  while (n_active > 0) {
    sched_->begin();
    for_active([&](std::size_t f) { uplinks_[f]->tti_transmit(); });
    // Submission order = flow order: group composition is deterministic
    // for any worker count.
    for (std::size_t f = 0; f < flows(); ++f) {
      if (active_[f] != 0) sched_->submit(uplinks_[f]->pending_jobs());
    }
    Stopwatch ssw;
    const std::uint64_t a0 = alloc_stats::news();
    sched_->run(*sched_ws_, pool_.get());
    const std::uint64_t sched_allocs = alloc_stats::news() - a0;
    // The shared decode wall time is one TTI-level cost: attribute an
    // equal share to each flow's latency; allocation deltas (zero in
    // steady state) can't be split meaningfully, so the first active
    // flow carries them for the alloc gates.
    const double share = ssw.seconds() / static_cast<double>(n_active);
    bool first = true;
    for (std::size_t f = 0; f < flows(); ++f) {
      if (active_[f] == 0) continue;
      uplinks_[f]->tti_add_latency(share);
      if (first) {
        uplinks_[f]->tti_add_decode_allocs(sched_allocs);
        first = false;
      }
    }
    for_active([&](std::size_t f) {
      uplinks_[f]->tti_collect();
      if (uplinks_[f]->tti_done()) results[f] = uplinks_[f]->tti_finish();
    });
    for (std::size_t f = 0; f < flows(); ++f) {
      if (active_[f] != 0 && uplinks_[f]->tti_done()) {
        active_[f] = 0;
        --n_active;
      }
    }
  }
}

void BatchRunner::set_quality(int harq_max_tx, int max_turbo_iterations) {
  for (auto& p : uplinks_) p->set_quality(harq_max_tx, max_turbo_iterations);
}

}  // namespace vran::pipeline
