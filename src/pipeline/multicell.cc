#include "pipeline/multicell.h"

#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

#include "net/pktgen.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace vran::pipeline {

namespace {

/// Longest sleep of an idle worker. It bounds the wait for a wake-up
/// that never comes (a packet pushed past offer(), or a platform without
/// a futex), and it keeps idle halts short. On a 4-vCPU KVM guest, a
/// vCPU halted for most of a 1 ms TTI sometimes took about 150 us to
/// wake. Without the timeout, multicell-openloop's p99 rose from
/// 80-101 us to 255-299 us in 10 s runs (EXPERIMENTS.md).
constexpr std::chrono::microseconds kIdlePoll{50};

static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
              std::atomic<std::uint32_t>::is_always_lock_free);

/// Sleep until `bell` changes from `seen` (woken by wake_all), or for
/// kIdlePoll at most. Returns at once when `bell` already differs.
void wait_bell(std::atomic<std::uint32_t>& bell, std::uint32_t seen) {
#if defined(__linux__)
  const timespec timeout{0, std::chrono::nanoseconds(kIdlePoll).count()};
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&bell),
          FUTEX_WAIT_PRIVATE, seen, &timeout, nullptr, 0);
#else
  (void)bell;
  (void)seen;
  std::this_thread::sleep_for(kIdlePoll);
#endif
}

void wake_all(std::atomic<std::uint32_t>& bell) {
#if defined(__linux__)
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&bell),
          FUTEX_WAKE_PRIVATE, std::numeric_limits<int>::max(), nullptr,
          nullptr, 0);
#else
  (void)bell;
#endif
}

}  // namespace

PipelineConfig MultiCellRunner::flow_config(const MultiCellConfig& cfg,
                                            int cell, int flow) {
  PipelineConfig p = cfg.flow_template;
  const int idx = cell * cfg.flows_per_cell + flow;
  p.cell_id = cell + 1;
  p.rnti = static_cast<std::uint16_t>(p.rnti + idx);
  p.teid = p.teid + static_cast<std::uint32_t>(idx);
  // Distinct odd strides keep every flow's noise stream independent
  // without colliding for any (cell, flow) in range.
  p.noise_seed = p.noise_seed + 1000003ull * static_cast<std::uint64_t>(cell) +
                 7919ull * static_cast<std::uint64_t>(flow);
  return p;
}

MultiCellRunner::MultiCellRunner(MultiCellConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.cells < 1 || cfg_.flows_per_cell < 1) {
    throw std::invalid_argument("MultiCellRunner: cells/flows must be >= 1");
  }
  if (cfg_.workers < 1) cfg_.workers = 1;
  shards_.reserve(static_cast<std::size_t>(cfg_.cells));
  for (int c = 0; c < cfg_.cells; ++c) {
    CellShardConfig sc;
    sc.cell_id = c;
    sc.flows.reserve(static_cast<std::size_t>(cfg_.flows_per_cell));
    for (int f = 0; f < cfg_.flows_per_cell; ++f) {
      sc.flows.push_back(flow_config(cfg_, c, f));
    }
    sc.ring_capacity = cfg_.ring_capacity;
    sc.pool_buffers = cfg_.pool_buffers;
    sc.buffer_bytes = cfg_.buffer_bytes;
    sc.tti_budget_ns = cfg_.tti_budget_ns;
    sc.degrade = cfg_.degrade;
    sc.recover_fraction = cfg_.recover_fraction;
    sc.drop_after_misses = cfg_.drop_after_misses;
    sc.alloc_retries = cfg_.alloc_retries;
    sc.alloc_backoff_budget_us = cfg_.alloc_backoff_budget_us;
    sc.fault = cfg_.fault;
    if (cfg_.telemetry.enabled && cfg_.telemetry.flight) {
      obs::FlightRecorderConfig fc;
      fc.capacity = cfg_.telemetry.flight_capacity;
      fc.window_before = cfg_.telemetry.window_before;
      fc.window_after = cfg_.telemetry.window_after;
      fc.dir = cfg_.telemetry.postmortem_dir;
      fc.max_dumps = cfg_.telemetry.max_dumps;
      fc.min_dump_interval_ms = cfg_.telemetry.min_dump_interval_ms;
      sc.flight = fc;
    }
    shards_.push_back(std::make_unique<CellShard>(std::move(sc)));
  }
  if (cfg_.telemetry.enabled) {
    obs::TelemetryOptions to;
    to.socket_path = cfg_.telemetry.socket_path;
    to.period_ms = cfg_.telemetry.period_ms;
    publisher_ = std::make_unique<obs::TelemetryPublisher>(std::move(to));
    publisher_->add_source("runner", &runner_reg_);
    for (int c = 0; c < cfg_.cells; ++c) {
      auto& shard = *shards_[static_cast<std::size_t>(c)];
      publisher_->add_source("cell" + std::to_string(c), &shard.metrics());
      if (shard.flight() != nullptr) {
        publisher_->add_flight_recorder(shard.flight());
      }
    }
  }
}

MultiCellRunner::~MultiCellRunner() { stop(); }

void MultiCellRunner::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  // Telemetry is best-effort: a socket that fails to bind leaves the
  // runtime fully functional, just unobserved over the socket.
  if (publisher_ != nullptr) publisher_->start();
  threads_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
#if defined(__linux__)
    if (cfg_.pin_workers) {
      const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<unsigned>(w) % ncpu, &set);
      // Best effort: an unpinnable worker still works, just unpinned.
      pthread_setaffinity_np(threads_.back().native_handle(), sizeof(set),
                             &set);
    }
#endif
  }
}

void MultiCellRunner::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  ring_doorbell();
  for (auto& t : threads_) t.join();
  threads_.clear();
  // Workers joined: flushing the flight recorders is now safe (a miss on
  // the final TTI still yields a postmortem), and the publisher's
  // stopping tick samples + dumps what the flush froze.
  for (auto& s : shards_) s->flush_flight();
  if (publisher_ != nullptr) publisher_->stop();
}

std::size_t MultiCellRunner::backlog() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->ingest_depth();
  return n;
}

bool MultiCellRunner::drain(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    recycle_all();
    bool idle = true;
    for (const auto& s : shards_) idle = idle && s->idle();
    if (idle) {
      recycle_all();  // pick up handles recycled since the last pass
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

MultiCellRunner::Totals MultiCellRunner::totals() const {
  Totals t;
  for (const auto& s : shards_) {
    const auto st = s->stats();
    t.ttis += st.ttis;
    t.packets += st.packets;
    t.deadline_miss += st.deadline_miss;
    t.degraded += st.degraded;
    t.dropped_ttis += st.dropped_ttis;
    t.dropped_packets += st.dropped_packets;
    t.offer_fails += st.offer_fails;
  }
  t.steals = steals_.load(std::memory_order_relaxed);
  return t;
}

obs::HistogramStats MultiCellRunner::tti_histogram() {
  obs::HistogramStats agg;
  for (auto& s : shards_) {
    agg.merge(s->metrics().histogram("cell.tti_ns").stats());
  }
  return agg;
}

void MultiCellRunner::ring_doorbell() {
  // Paired with worker_loop's sleepers_ increment before it blocks: both
  // sides are seq_cst, so either this load sees the sleeper or the
  // sleeper's futex compare sees the new doorbell value and returns.
  doorbell_.fetch_add(1, std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_seq_cst) > 0) wake_all(doorbell_);
}

bool MultiCellRunner::try_drain(CellShard& shard, bool stolen) {
  if (!shard.has_work()) return false;
  if (!shard.try_claim()) return false;  // someone else is on it
  bool any = false;
  while (shard.run_tti()) {
    any = true;
    if (stolen) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      c_steals_.add();  // same count, live-sampleable via "runner"
    }
  }
  shard.release();
  return any;
}

void MultiCellRunner::worker_loop(int w) {
  std::vector<int> home;
  for (int i = 0; i < cells(); ++i) {
    if (i % cfg_.workers == w) home.push_back(i);
  }
  int idle_spins = 0;
  while (running_.load(std::memory_order_acquire)) {
    // Read before the scan: an offer the scan misses changes the
    // doorbell after this read, so the sleep below returns at once.
    const std::uint32_t bell = doorbell_.load(std::memory_order_seq_cst);
    bool did = false;
    for (const int i : home) {
      if (try_drain(*shards_[static_cast<std::size_t>(i)], /*stolen=*/false)) {
        did = true;
      }
    }
    if (!did && cfg_.steal) {
      for (int i = 0; i < cells(); ++i) {
        if (i % cfg_.workers == w) continue;
        if (try_drain(*shards_[static_cast<std::size_t>(i)],
                      /*stolen=*/true)) {
          did = true;
        }
      }
    }
    if (did) {
      idle_spins = 0;
      continue;
    }
    // Idle backoff: yield first (cheap on the oversubscribed single-core
    // CI hosts, where the producer needs the core), then sleep until the
    // next offer rings the doorbell.
    if (++idle_spins < 64) {
      std::this_thread::yield();
    } else {
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      wait_bell(doorbell_, bell);
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

LoadGenerator::Stats LoadGenerator::run(MultiCellRunner& runner,
                                        const Config& cfg,
                                        int drain_timeout_ms) {
  const int cells = runner.cells();
  const int fpc = static_cast<int>(runner.shard(0).flows());
  std::vector<net::PacketGenerator> gens;
  gens.reserve(static_cast<std::size_t>(cells * fpc));
  for (int c = 0; c < cells; ++c) {
    for (int f = 0; f < fpc; ++f) {
      net::FlowConfig fc;
      fc.packet_bytes = cfg.packet_bytes;
      fc.src_port = static_cast<std::uint16_t>(40000 + f);
      fc.seed = cfg.seed + 100000ull * static_cast<std::uint64_t>(c) +
                static_cast<std::uint64_t>(f);
      gens.emplace_back(fc);
    }
  }

  Stats st;
  const std::uint64_t total =
      static_cast<std::uint64_t>(cfg.rate_pps * cfg.seconds);
  const double period_ns = 1e9 / cfg.rate_pps;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t k = 0; k < total; ++k) {
    // Open loop: hold the ideal schedule t_k = k / rate. Sleep for the
    // bulk of the wait, yield-spin the last stretch (a plain sleep
    // overshoots by the scheduler quantum and would under-drive the
    // target rate).
    const auto target = t0 + std::chrono::nanoseconds(static_cast<
        std::uint64_t>(static_cast<double>(k) * period_ns));
    auto now = std::chrono::steady_clock::now();
    if (target - now > std::chrono::microseconds(200)) {
      std::this_thread::sleep_for(target - now -
                                  std::chrono::microseconds(100));
    }
    while (std::chrono::steady_clock::now() < target) {
      std::this_thread::yield();
    }
    const int cell = static_cast<int>(k % static_cast<std::uint64_t>(cells));
    const int flow = static_cast<int>(
        (k / static_cast<std::uint64_t>(cells)) %
        static_cast<std::uint64_t>(fpc));
    const auto pkt = gens[static_cast<std::size_t>(cell * fpc + flow)].next();
    ++st.offered;
    if (runner.offer(cell, flow, pkt)) {
      ++st.accepted;
    } else {
      ++st.dropped;
    }
    // offer() recycles its own shard; sweep the others now and then so
    // no pool starves just because its cell's turn in the round-robin
    // is far away.
    if ((k & 0x3F) == 0) runner.recycle_all();
  }
  st.elapsed_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  runner.drain(drain_timeout_ms);
  return st;
}

}  // namespace vran::pipeline
