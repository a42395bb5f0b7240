#include "pipeline/cell_shard.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/timer.h"
#include "obs/pmu.h"

namespace vran::pipeline {

namespace {

constexpr std::size_t kFlowTagBytes = 2;

/// Flight-recorder stage slots: the uplink chain's stages, heaviest
/// (turbo decode) included, in pipeline order. Every flow of the cell
/// folds into the same per-cell "stage.<key>_ns" histogram, so one
/// live_sum delta per slot covers the whole cell's TTI.
constexpr std::array<Stage, obs::kFlightStages> kFlightSlots = {
    Stage::kOfdmRx,         Stage::kDemodulation, Stage::kDescramble,
    Stage::kRateDematch,    Stage::kArrange,      Stage::kTurboDecode,
    Stage::kDesegmentation, Stage::kGtpu};

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Length-delimited chaining: hash the frame size first so (AB, C) and
/// (A, BC) fingerprint differently.
std::uint64_t fnv1a_frame(std::uint64_t h,
                          std::span<const std::uint8_t> frame) {
  const std::uint64_t n = frame.size();
  std::uint8_t len[8];
  for (int i = 0; i < 8; ++i) len[i] = static_cast<std::uint8_t>(n >> (8 * i));
  return fnv1a(fnv1a(h, len), frame);
}

std::vector<PipelineConfig> shard_flow_configs(
    std::vector<PipelineConfig> flows, obs::MetricsRegistry* reg) {
  if (flows.empty()) {
    throw std::invalid_argument("CellShard: no flows");
  }
  for (auto& f : flows) f.metrics = reg;
  return flows;
}

std::size_t effective_pool_buffers(const CellShardConfig& cfg) {
  return cfg.pool_buffers != 0 ? cfg.pool_buffers : 2 * cfg.ring_capacity;
}

/// Smallest power of two >= n (>= 1).
std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

CellShard::CellShard(CellShardConfig cfg)
    : cfg_(std::move(cfg)),
      runner_(BatchRunner::Direction::kUplink,
              shard_flow_configs(cfg_.flows, &reg_),
              /*num_workers=*/1),  // shards are the parallel index
      pool_(cfg_.buffer_bytes, effective_pool_buffers(cfg_)),
      ingest_(cfg_.ring_capacity),
      // Sized to hold EVERY pool handle: the worker returns spent handles
      // through this ring and must never block or fall back to freeing
      // (pool_.free is producer-thread-only), so its push cannot be
      // allowed to fail.
      recycle_(pow2_at_least(effective_pool_buffers(cfg_))),
      base_harq_(cfg_.flows.front().harq_max_tx),
      base_iters_(cfg_.flows.front().max_turbo_iterations),
      m_tti_(reg_.counter("cell.tti")),
      m_packets_(reg_.counter("cell.packets")),
      m_miss_(reg_.counter("cell.deadline_miss")),
      m_degraded_(reg_.counter("cell.degraded")),
      m_dropped_(reg_.counter("cell.dropped")),
      m_tti_ns_(reg_.histogram("cell.tti_ns")),
      m_level_(reg_.gauge("cell.degrade_level")),
      m_depth_(reg_.gauge("cell.ingest_depth")),
      epoch_(std::chrono::steady_clock::now()) {
  if (cfg_.buffer_bytes <= kFlowTagBytes) {
    throw std::invalid_argument("CellShard: buffer_bytes too small");
  }
  pool_.set_fault_injector(cfg_.fault);
  staged_.resize(flows());
  got_.resize(flows());
  flow_stats_.resize(flows());
  spent_.reserve(flows());
  if (cfg_.flight.has_value()) {
    obs::FlightRecorderConfig fc = *cfg_.flight;
    fc.cell_id = cfg_.cell_id;
    fc.budget_ns = cfg_.tti_budget_ns;
    // PMU counters exist only when the flows attribute hardware
    // counters per stage; resolving them otherwise would export
    // all-zero pmu.* series.
    const bool hw = cfg_.flows.front().pmu && obs::pmu_available();
    for (std::size_t i = 0; i < kFlightSlots.size(); ++i) {
      const Stage s = kFlightSlots[i];
      fc.stage_names[i] = stage_info(s).key;
      fl_stage_[i] = &reg_.histogram(stage_histogram_name(s));
      if (hw) {
        const std::string pmu = stage_pmu_prefix(s);
        fl_pmu_cycles_.push_back(&reg_.counter(pmu + "cycles"));
        fl_pmu_instr_.push_back(&reg_.counter(pmu + "instructions"));
      }
    }
    flight_ = std::make_unique<obs::FlightRecorder>(std::move(fc));
  }
}

void CellShard::record_flight(std::uint64_t wall_ns, std::uint64_t elapsed_ns,
                              std::size_t n, std::uint32_t depth,
                              std::uint64_t pressure, bool miss,
                              bool dropped) {
  obs::TtiFlightRecord r;
  r.seq = tti_seq_;
  r.wall_ns = wall_ns;
  r.tti_ns = elapsed_ns;
  r.packets = static_cast<std::uint32_t>(n);
  r.degrade_level = applied_level_;
  r.alloc_pressure = static_cast<std::uint32_t>(pressure);
  r.ingest_depth = depth;
  r.miss = miss;
  r.dropped = dropped;
  for (int s = 0; s < obs::kFlightStages; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const std::uint64_t cur = fl_stage_[i]->live_sum();
    r.stage_ns[i] = cur - fl_stage_prev_[i];
    fl_stage_prev_[i] = cur;
  }
  if (!fl_pmu_cycles_.empty()) {
    std::uint64_t cycles = 0, instr = 0;
    for (const obs::Counter* c : fl_pmu_cycles_) cycles += c->value();
    for (const obs::Counter* c : fl_pmu_instr_) instr += c->value();
    const std::uint64_t dc = cycles - fl_cycles_prev_;
    const std::uint64_t di = instr - fl_instr_prev_;
    fl_cycles_prev_ = cycles;
    fl_instr_prev_ = instr;
    if (dc > 0) {
      r.ipc_milli = static_cast<std::uint32_t>((di * 1000) / dc);
    }
  }
  flight_->record(r);
}

bool CellShard::offer(std::size_t flow, std::span<const std::uint8_t> payload) {
  if (flow >= flows()) {
    throw std::invalid_argument("CellShard::offer: bad flow index");
  }
  if (payload.size() + kFlowTagBytes > cfg_.buffer_bytes) {
    throw std::invalid_argument("CellShard::offer: payload exceeds buffer");
  }
  // Opportunistic recycle first: a starved pool usually has spent
  // handles waiting in the recycle ring.
  recycle();
  auto buf =
      pool_.alloc_retry(cfg_.alloc_retries, cfg_.alloc_backoff_budget_us);
  if (!buf.has_value()) {
    ++offer_fails_;
    alloc_pressure_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  auto data = pool_.data(*buf);
  data[0] = static_cast<std::uint8_t>(flow >> 8);
  data[1] = static_cast<std::uint8_t>(flow);
  std::memcpy(data.data() + kFlowTagBytes, payload.data(), payload.size());
  buf->length = static_cast<std::uint32_t>(payload.size() + kFlowTagBytes);
  if (!ingest_.push(*buf)) {
    // Ring full: the shard is far behind. Shed at the door and tell the
    // scheduler — same signal as pool starvation.
    pool_.free(*buf);
    ++offer_fails_;
    alloc_pressure_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void CellShard::recycle() {
  while (auto buf = recycle_.pop()) pool_.free(*buf);
}

void CellShard::apply_quality(int level) {
  if (level == applied_level_) return;
  const int harq = level >= 1 ? 1 : base_harq_;
  const int iters = level >= 2 ? std::max(1, base_iters_ / 2) : base_iters_;
  runner_.set_quality(harq, iters);
  applied_level_ = level;
}

void CellShard::drop_tti(std::size_t n_popped) {
  ++dropped_ttis_;
  dropped_packets_ += n_popped;
  m_dropped_.add();
  recycle_spent();
}

void CellShard::recycle_spent() {
  for (const auto& buf : spent_) {
    // Cannot fail: the recycle ring holds >= pool_buffers slots and every
    // handle exists exactly once (in the pool, in a ring, or in flight).
    const bool ok = recycle_.push(buf);
    (void)ok;
    assert(ok && "CellShard recycle ring undersized");
  }
  spent_.clear();
}

bool CellShard::run_tti() {
  const auto depth0 = static_cast<std::uint32_t>(ingest_.size());
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  // Gather up to one packet per flow, FIFO. A packet for a flow already
  // served this TTI closes the window and is held for the next one.
  std::fill(got_.begin(), got_.end(), std::uint8_t{0});
  for (auto& s : staged_) s.clear();
  spent_.clear();
  std::size_t n = 0;
  for (;;) {
    std::optional<net::PacketBuf> buf;
    if (has_held_.load(std::memory_order_relaxed)) {
      buf = held_;
      held_.reset();
      has_held_.store(false, std::memory_order_release);
    } else {
      buf = ingest_.pop();
    }
    if (!buf.has_value()) break;
    const auto data = pool_.data(*buf).first(buf->length);
    const std::size_t flow =
        (std::size_t{data[0]} << 8) | std::size_t{data[1]};
    if (flow >= flows()) {  // corrupt tag: recycle and drop the handle
      spent_.push_back(*buf);
      continue;
    }
    if (got_[flow] != 0) {
      held_ = buf;
      has_held_.store(true, std::memory_order_release);
      break;
    }
    got_[flow] = 1;
    staged_[flow].assign(data.begin() + kFlowTagBytes, data.end());
    spent_.push_back(*buf);
    ++n;
  }
  if (n == 0) return false;

  // Producer-side pool starvation is a degrade signal: the shard is not
  // keeping buffers moving, so shed quality before shedding packets.
  const std::uint64_t pressure =
      alloc_pressure_.exchange(0, std::memory_order_relaxed);
  if (pressure > 0 && cfg_.degrade) {
    level_ = std::min(2, level_ + 1);
  }

  // Already hopeless: at the top of the ladder and still missing for
  // drop_after_misses TTIs in a row — drop this TTI's packets outright
  // (bounded lateness beats unbounded queue growth) and start fresh.
  if (cfg_.degrade && level_ >= 2 &&
      consecutive_misses_ >= cfg_.drop_after_misses) {
    drop_tti(n);
    consecutive_misses_ = 0;
    if (flight_ != nullptr) {
      record_flight(wall_ns, 0, n, depth0, pressure, /*miss=*/false,
                    /*dropped=*/true);
    }
    ++tti_seq_;
    m_level_.set(level_);
    m_depth_.set(static_cast<std::int64_t>(ingest_.size()));
    return true;
  }

  if (cfg_.degrade) apply_quality(level_);
  const bool ran_degraded = applied_level_ > 0;

  Stopwatch sw;
  runner_.run_tti(staged_, results_);
  const auto elapsed_ns = static_cast<std::uint64_t>(sw.seconds() * 1e9);

  ++ttis_;
  packets_ += n;
  m_tti_.add();
  m_packets_.add(n);
  m_tti_ns_.record(elapsed_ns);
  if (ran_degraded) {
    ++degraded_;
    m_degraded_.add();
  }
  for (std::size_t f = 0; f < flows(); ++f) {
    if (got_[f] == 0) continue;
    auto& fs = flow_stats_[f];
    const auto& r = results_[f];
    ++fs.packets;
    fs.delivered += r.delivered ? 1 : 0;
    fs.crc_ok += r.crc_ok ? 1 : 0;
    fs.transmissions += static_cast<std::uint64_t>(r.transmissions);
    fs.egress_bytes += r.egress.size();
    fs.egress_hash = fnv1a_frame(fs.egress_hash, r.egress);
  }

  // Deadline accounting + ladder movement for the NEXT TTI.
  const bool miss = elapsed_ns > cfg_.tti_budget_ns;
  if (miss) {
    ++miss_;
    m_miss_.add();
    ++consecutive_misses_;
    if (cfg_.degrade) level_ = std::min(2, level_ + 1);
  } else {
    consecutive_misses_ = 0;
    if (cfg_.degrade &&
        static_cast<double>(elapsed_ns) <
            cfg_.recover_fraction * static_cast<double>(cfg_.tti_budget_ns)) {
      level_ = std::max(0, level_ - 1);
    }
  }

  if (flight_ != nullptr) {
    record_flight(wall_ns, elapsed_ns, n, depth0, pressure, miss,
                  /*dropped=*/false);
  }
  ++tti_seq_;
  m_level_.set(level_);
  m_depth_.set(static_cast<std::int64_t>(ingest_.size()));

  recycle_spent();
  return true;
}

CellShard::Stats CellShard::stats() const {
  Stats s;
  s.ttis = ttis_;
  s.packets = packets_;
  s.deadline_miss = miss_;
  s.degraded = degraded_;
  s.dropped_ttis = dropped_ttis_;
  s.dropped_packets = dropped_packets_;
  s.offer_fails = offer_fails_;
  s.degrade_level = level_;
  s.flow = flow_stats_;
  return s;
}

}  // namespace vran::pipeline
