// vran_bench: the uplink benchmark — four workloads, end-to-end metrics
// checked against the egress bytes, and a traced per-layer replay
// (README.md in this directory).
//
//   vran_bench --workload W [--seed S] [--seconds T] [--json PATH]
//       Untraced run: every end-to-end metric of workload W.
//   vran_bench --workload W --trace TRACE.json [...]
//       Per-layer run: counts from an untraced pass, then a traced
//       one-thread replay; writes the replay's spans as Chrome-trace JSON.
//   vran_bench --workload W --seed S --dry-run
//       Generate the inputs only and print their digest.
//   vran_bench --check-names BENCHMARK.json
//       Exit 1 unless the file names exactly this binary's workloads and
//       metrics.
//
// --ttis N replaces the time budget of the closed-loop workloads, and
// caps the traced replay, by N TTIs (the self-test uses it). --snr-db X
// overrides the workload's SNR, a diagnostic for the loss listing
// ("# loss:" lines), not a workload. Every metric prints as
// `name value unit`; other lines start with '#'. Exit status: 0 ok,
// 1 usage or I/O error, 2 invalid run ("invalid: <reason>", no metrics),
// 3 wrong output (a delivered frame with the wrong bytes; metrics still
// print).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <immintrin.h>

#include "bench/bench_util.h"
#include "bench/suite/replay.h"
#include "bench/suite/workloads.h"
#include "common/alloc_stats.h"
#include "net/gtpu.h"
#include "phy/segmentation/segmentation.h"
#include "pipeline/batch_runner.h"
#include "pipeline/multicell.h"
#include "tools/json_mini.h"

using namespace vran;
using bench::Loop;
using bench::Workload;

namespace {

// --- Metric tables (BENCHMARK.json mirrors them; --check-names) --------

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricDef kEndToEnd[] = {
    {"latency_p50_us", "us", "lower"},
    {"latency_p99_us", "us", "lower"},
    {"goodput_mbps", "Mbit/s", "higher"},
    {"delivered_ratio", "ratio", "higher"},
    {"setup_s", "s", "lower"},
};

constexpr MetricDef kPerLayer[] = {
    {"testbed.ue_encode_us", "us", "lower"},
    {"testbed.ue_tx_us", "us", "lower"},
    {"testbed.channel_us", "us", "lower"},
    {"ofdm.rx_us", "us", "lower"},
    {"modulation.demap_us", "us", "lower"},
    {"scramble.descramble_us", "us", "lower"},
    {"ratematch.dematch_us", "us", "lower"},
    {"arrange.deinterleave_us", "us", "lower"},
    {"turbo.decode_us", "us", "lower"},
    {"segmentation.deseg_us", "us", "lower"},
    {"crc.tb_check_us", "us", "lower"},
    {"mac.parse_us", "us", "lower"},
    {"net.gtpu_us", "us", "lower"},
    {"enb.rx_us", "us", "lower"},
    {"pipeline.unattributed_us", "us", "lower"},
    {"ttis", "count", "higher"},
    {"turbo.iterations_mean", "count", "lower"},
    {"harq.tx_per_tb", "ratio", "lower"},
    {"decode_sched.lane_fill", "ratio", "higher"},
    {"decode_sched.windowed_share", "ratio", "lower"},
    {"code_blocks_per_tti", "count", "lower"},
    {"allocs_per_tti", "count", "lower"},
    {"deadline_met_ratio", "ratio", "higher"},
    {"net.refused_ratio", "ratio", "lower"},
    {"multicell.backlog_p99", "count", "lower"},
    {"multicell.steal_ratio", "ratio", "lower"},
    {"cell_shard.degraded_ratio", "ratio", "lower"},
};

/// Traced layers reported per TTI, in kPerLayer order.
constexpr bench::Layer kReportedLayers[] = {
    bench::kUeEncode, bench::kUeTx,    bench::kChannel,    bench::kOfdmRx,
    bench::kDemap,    bench::kDescramble, bench::kDematch, bench::kArrange,
    bench::kTurbo,    bench::kDeseg,   bench::kCrc,        bench::kMacParse,
    bench::kGtpu,
};

constexpr int kWarmupTtis = 50;      ///< closed loop, counted in setup_s
constexpr int kPoolTtis = 256;       ///< closed-loop input pool (cycled)
constexpr int kSetupReps = 5;        ///< setup_s is their median
constexpr double kOpenWarmupS = 1.0; ///< open loop, before the window
constexpr double kBudgetS = 1e-3;    ///< the LTE TTI
constexpr double kMaxLateS = 200e-6; ///< open-loop generator validity
constexpr int kOpenThreads = 4;      ///< producer + 2 workers + publisher
constexpr int kTraceKeepTtis = 300;  ///< TTIs written to the trace file

// --- Small helpers ------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / double(v.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Undelivered packets keyed by (MCS, code blocks per TB, K of the
/// largest block), so a decoder fix can be checked block size by block
/// size.
using LossKey = std::tuple<int, int, int>;
using Losses = std::map<LossKey, std::uint64_t>;

void note_loss(Losses& losses, int mcs, std::size_t tb_bytes,
               std::uint64_t n) {
  if (n == 0) return;
  const auto plan =
      phy::make_segmentation_plan(static_cast<int>(tb_bytes * 8 + 24));
  losses[{mcs, plan.c, plan.k_plus}] += n;
}

/// The TB size UplinkPipeline::tti_begin picks for an IP packet.
std::size_t tb_bytes_for(const pipeline::PipelineConfig& cfg,
                         std::size_t packet_bytes) {
  const int bits = static_cast<int>(packet_bytes + mac::kMacHeaderBytes) * 8;
  const int n_prb = mac::prbs_for_payload(bits, cfg.mcs, cfg.max_prb);
  return static_cast<std::size_t>(mac::transport_block_bits(cfg.mcs, n_prb) /
                                  8);
}

// --- Closed loop ----------------------------------------------------------

struct ClosedRun {
  std::vector<double> setup_s;
  std::vector<double> tti_s;  ///< exact stopwatch per run_tti
  std::uint64_t packets = 0, delivered = 0, delivered_bytes = 0;
  std::uint64_t wrong = 0;
  std::uint64_t transmissions = 0, iterations = 0, allocs = 0;
  std::uint64_t code_blocks = 0;  ///< per TB, not per decode attempt
  pipeline::DecodeScheduler::Stats sched;  ///< measured-window delta
  Losses losses;
};

/// Byte-compare every delivered egress against gtpu_encapsulate(teid,
/// sent) and tally the per-packet outputs.
void tally(const std::vector<pipeline::PipelineConfig>& cfgs,
           const std::vector<std::vector<std::uint8_t>>& sent,
           const std::vector<pipeline::PacketResult>& results,
           ClosedRun& out, bool measured) {
  for (std::size_t f = 0; f < sent.size(); ++f) {
    const auto& r = results[f];
    const bool wrong =
        r.delivered &&
        r.egress != net::gtpu_encapsulate(cfgs[f].teid, sent[f]);
    out.wrong += wrong ? 1 : 0;
    if (!measured) continue;
    ++out.packets;
    out.transmissions += static_cast<std::uint64_t>(r.transmissions);
    out.iterations += static_cast<std::uint64_t>(r.turbo_iterations);
    out.allocs += r.decode_allocs;
    out.code_blocks += r.code_blocks;
    if (r.delivered && !wrong) {
      ++out.delivered;
      out.delivered_bytes += sent[f].size();
    } else {
      note_loss(out.losses, cfgs[f].mcs, r.tb_bytes, 1);
    }
  }
}

pipeline::DecodeScheduler::Stats sched_delta(
    const pipeline::DecodeScheduler::Stats& a,
    const pipeline::DecodeScheduler::Stats& b) {
  pipeline::DecodeScheduler::Stats d;
  d.blocks = b.blocks - a.blocks;
  d.batch_groups = b.batch_groups - a.batch_groups;
  d.windowed_blocks = b.windowed_blocks - a.windowed_blocks;
  d.lanes_filled = b.lanes_filled - a.lanes_filled;
  d.lanes_available = b.lanes_available - a.lanes_available;
  d.smallk_rerouted = b.smallk_rerouted - a.smallk_rerouted;
  return d;
}

void add_sched(pipeline::DecodeScheduler::Stats& acc,
               const pipeline::DecodeScheduler::Stats& d) {
  acc.blocks += d.blocks;
  acc.batch_groups += d.batch_groups;
  acc.windowed_blocks += d.windowed_blocks;
  acc.lanes_filled += d.lanes_filled;
  acc.lanes_available += d.lanes_available;
  acc.smallk_rerouted += d.smallk_rerouted;
}

/// Build the runner and warm it up `reps` times (each a setup_s sample),
/// then time run_tti until `seconds` pass or `fixed_ttis` TTIs are done.
ClosedRun run_closed(const Workload& w, const bench::Inputs& in, int workers,
                     int reps, double seconds, int fixed_ttis) {
  std::vector<pipeline::PipelineConfig> cfgs;
  for (int ue = 0; ue < w.ues; ++ue) {
    cfgs.push_back(bench::flow_config(
        w, 0, ue, in.noise_seeds[static_cast<std::size_t>(ue)]));
  }
  const auto pool = [&](std::size_t t) -> const auto& {
    return in.ttis[t % in.ttis.size()];
  };

  ClosedRun out;
  std::unique_ptr<pipeline::BatchRunner> runner;
  std::vector<pipeline::PacketResult> results;
  for (int rep = 0; rep < reps; ++rep) {
    runner.reset();
    Stopwatch sw;
    runner = std::make_unique<pipeline::BatchRunner>(
        pipeline::BatchRunner::Direction::kUplink, cfgs, workers);
    double setup = sw.seconds();
    for (std::size_t t = 0; t < kWarmupTtis; ++t) {
      sw.reset();
      runner->run_tti(pool(t), results);
      setup += sw.seconds();
      tally(cfgs, pool(t), results, out, false);  // checked, not counted
    }
    out.setup_s.push_back(setup);
  }

  const auto sched0 = runner->decode_scheduler()->stats();
  Stopwatch wall;
  for (std::size_t t = kWarmupTtis;; ++t) {
    const std::size_t done = t - kWarmupTtis;
    if (fixed_ttis > 0 ? done >= static_cast<std::size_t>(fixed_ttis)
                       : wall.seconds() >= seconds) {
      break;
    }
    const auto& sent = pool(t);
    Stopwatch sw;
    runner->run_tti(sent, results);
    out.tti_s.push_back(sw.seconds());
    tally(cfgs, sent, results, out, true);
  }
  out.sched = sched_delta(sched0, runner->decode_scheduler()->stats());
  return out;
}

// --- Open loop ------------------------------------------------------------

struct OpenRun {
  std::vector<double> setup_s;
  std::vector<double> latency_s;  ///< due -> TTI end, measured packets
  std::vector<double> late_s;     ///< offer instant - due, per tick
  std::vector<double> offer_s;    ///< stopwatch around offer()
  std::vector<double> backlog;    ///< backlog() sampled every tick
  std::uint64_t offered = 0, refused = 0, unmapped = 0;
  std::uint64_t delivered = 0, delivered_bytes = 0;
  std::uint64_t wrong_flows = 0, hashed_flows = 0;
  std::uint64_t transmissions = 0, tbs = 0;
  double window_s = 0;
  double tti_ns_sum = 0;  ///< runtime's own TTI clock, measured window
  double tti_hist_p50_us = 0;
  std::uint64_t telemetry_ticks = 0;
  pipeline::MultiCellRunner::Totals totals;  ///< measured-window delta
  pipeline::DecodeScheduler::Stats sched;
  Losses losses;
  std::string invalid;
};

/// Drives the runtime from this (the producer) thread: offers on the
/// ideal schedule and, while waiting for the next instant, watches each
/// cell's "cell.packets" counter to time every packet from when it was
/// due to the end of the TTI that consumed it (a cell consumes its ring
/// in FIFO order).
class OpenLoopSource {
 public:
  OpenLoopSource(const Workload& w, pipeline::MultiCellRunner& runner,
                 OpenRun& out)
      : w_(w), runner_(runner), out_(out),
        fifo_(static_cast<std::size_t>(w.cells)),
        done_(static_cast<std::size_t>(w.cells), 0),
        fifo_base_(static_cast<std::size_t>(w.cells), 0),
        packets_base_(static_cast<std::size_t>(w.cells), 0),
        accepted_(static_cast<std::size_t>(w.cells * w.ues)) {
    for (int c = 0; c < w.cells; ++c) {
      packets_.push_back(&runner.shard(c).metrics().counter("cell.packets"));
    }
  }

  /// Offer every packet of `packets` at once and wait for all of them.
  bool prime(const std::vector<bench::Packet>& packets) {
    for (const auto& p : packets) offer(p, Clock::now(), false);
    return runner_.drain(10000);
  }

  /// Restart the packet-to-TTI mapping on a drained runtime: everything
  /// offered so far has been consumed.
  void resync() {
    for (std::size_t c = 0; c < fifo_.size(); ++c) {
      fifo_base_[c] = done_[c] = fifo_[c].size();
      packets_base_[c] = packets_[c]->value();
    }
  }

  /// Offer `packets` on the schedule: packets_per_tick every tick.
  void emit(const std::vector<bench::Packet>& all, std::size_t first,
            std::size_t count, bool measure) {
    const auto tick = std::chrono::duration<double>(1.0 / w_.ticks_per_s);
    const auto ppt = static_cast<std::size_t>(w_.packets_per_tick);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < count; i += ppt) {
      const auto due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   tick * static_cast<double>(i / ppt));
      auto now = Clock::now();
      while (now < due) {
        if (measure) poll(now);
        _mm_pause();
        now = Clock::now();
      }
      if (measure) {
        out_.late_s.push_back(seconds(now - due));
        // What this instant's packets queue behind.
        out_.backlog.push_back(static_cast<double>(runner_.backlog()));
      }
      for (std::size_t j = i; j < std::min(i + ppt, count); ++j) {
        offer(all[first + j], due, measure);
      }
      if (((i / ppt) & 31) == 0) runner_.recycle_all();
      if (measure) poll(Clock::now());
    }
    if (measure) {
      out_.window_s = seconds(Clock::now() - t0) +
                      std::chrono::duration<double>(tick).count();
    }
  }

  /// Keep timing until every accepted packet's TTI ended (or 10 s).
  void finish() {
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      poll(Clock::now());
      bool all = true;
      for (std::size_t c = 0; c < fifo_.size(); ++c) {
        all = all && done_[c] >= fifo_[c].size();
      }
      if (all) break;
      runner_.recycle_all();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    for (std::size_t c = 0; c < fifo_.size(); ++c) {
      for (std::size_t i = done_[c]; i < fifo_[c].size(); ++i) {
        if (fifo_[c][i].measured) ++out_.unmapped;
      }
    }
  }

  /// Accepted packets per flow, in offer order.
  const std::vector<std::vector<const bench::Packet*>>& accepted() const {
    return accepted_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Pending {
    Clock::time_point due;
    bool measured;
  };

  static double seconds(Clock::duration d) {
    return std::chrono::duration<double>(d).count();
  }

  void offer(const bench::Packet& p, Clock::time_point due, bool measure) {
    Stopwatch sw;
    const bool ok = runner_.offer(p.cell, p.ue, p.bytes);
    if (measure) {
      out_.offer_s.push_back(sw.seconds());
      ++out_.offered;
    }
    if (!ok) {
      if (measure) ++out_.refused;
      return;
    }
    fifo_[static_cast<std::size_t>(p.cell)].push_back({due, measure});
    accepted_[static_cast<std::size_t>(p.cell * w_.ues + p.ue)].push_back(
        &p);
  }

  /// A dropped TTI would consume packets without counting them and break
  /// this mapping; the workload never drops (run_open checks).
  void poll(Clock::time_point now) {
    for (std::size_t c = 0; c < fifo_.size(); ++c) {
      const std::size_t processed =
          fifo_base_[c] + (packets_[c]->value() - packets_base_[c]);
      for (; done_[c] < processed && done_[c] < fifo_[c].size(); ++done_[c]) {
        const Pending& p = fifo_[c][done_[c]];
        if (p.measured) out_.latency_s.push_back(seconds(now - p.due));
      }
    }
  }

  const Workload& w_;
  pipeline::MultiCellRunner& runner_;
  OpenRun& out_;
  std::vector<const obs::Counter*> packets_;
  std::vector<std::vector<Pending>> fifo_;
  std::vector<std::size_t> done_;         ///< fifo_ entries consumed
  std::vector<std::size_t> fifo_base_;    ///< fifo_ size at resync()
  std::vector<std::uint64_t> packets_base_;  ///< cell.packets at resync()
  std::vector<std::vector<const bench::Packet*>> accepted_;
};

std::vector<pipeline::CellShard::FlowStats> flow_stats(
    const pipeline::MultiCellRunner& r) {
  std::vector<pipeline::CellShard::FlowStats> all;
  for (int c = 0; c < r.cells(); ++c) {
    for (const auto& fs : r.shard(c).stats().flow) all.push_back(fs);
  }
  return all;
}

pipeline::DecodeScheduler::Stats sched_sum(
    const pipeline::MultiCellRunner& r) {
  pipeline::DecodeScheduler::Stats s;
  for (int c = 0; c < r.cells(); ++c) {
    add_sched(s, r.shard(c).runner().decode_scheduler()->stats());
  }
  return s;
}

std::uint64_t frame_hash(std::uint64_t h,
                         const std::vector<std::uint8_t>& frame) {
  std::uint8_t len[8];
  for (int i = 0; i < 8; ++i) {
    len[i] = static_cast<std::uint8_t>(std::uint64_t{frame.size()} >> (8 * i));
  }
  return bench::fnv1a(bench::fnv1a(h, len, 8), frame.data(), frame.size());
}

OpenRun run_open(const Workload& w, const bench::Inputs& in, int reps,
                 double measure_s) {
  OpenRun out;
  const auto mc = bench::multicell_config(w, in.noise_seeds[0]);
  std::unique_ptr<pipeline::MultiCellRunner> runner;
  std::unique_ptr<OpenLoopSource> source;
  for (int rep = 0; rep < reps; ++rep) {
    source.reset();
    runner.reset();
    Stopwatch sw;
    runner = std::make_unique<pipeline::MultiCellRunner>(mc);
    runner->start();
    source = std::make_unique<OpenLoopSource>(w, *runner, out);
    if (!source->prime(in.prime)) {
      out.invalid = "priming did not drain";
      return out;
    }
    out.setup_s.push_back(sw.seconds());
  }

  const std::size_t ppt = static_cast<std::size_t>(w.packets_per_tick);
  const auto warm_n = static_cast<std::size_t>(
                          std::llround(kOpenWarmupS * w.ticks_per_s)) * ppt;
  const auto meas_n = static_cast<std::size_t>(
                          std::llround(measure_s * w.ticks_per_s)) * ppt;
  source->emit(in.schedule, 0, warm_n, false);
  if (!runner->drain(10000)) {
    out.invalid = "warm-up did not drain";
    return out;
  }
  const auto totals0 = runner->totals();
  const auto flows0 = flow_stats(*runner);
  const auto sched0 = sched_sum(*runner);
  const auto hist0 = runner->tti_histogram();
  source->resync();

  source->emit(in.schedule, warm_n, meas_n, true);
  source->finish();
  const bool drained = runner->drain(10000);
  runner->stop();
  if (!drained) {
    out.invalid = "measured window did not drain";
    return out;
  }

  const auto totals1 = runner->totals();
  out.totals.ttis = totals1.ttis - totals0.ttis;
  out.totals.packets = totals1.packets - totals0.packets;
  out.totals.deadline_miss = totals1.deadline_miss - totals0.deadline_miss;
  out.totals.degraded = totals1.degraded - totals0.degraded;
  out.totals.dropped_ttis = totals1.dropped_ttis - totals0.dropped_ttis;
  out.totals.dropped_packets =
      totals1.dropped_packets - totals0.dropped_packets;
  out.totals.offer_fails = totals1.offer_fails - totals0.offer_fails;
  out.totals.steals = totals1.steals - totals0.steals;
  out.sched = sched_delta(sched0, sched_sum(*runner));
  const auto hist1 = runner->tti_histogram();
  out.tti_ns_sum = double(hist1.sum - hist0.sum);
  out.tti_hist_p50_us = hist1.quantile(0.5) / 1e3;
  out.telemetry_ticks = runner->telemetry()->ticks();

  // Per-flow egress checks. Every flow's packets have one size, so the
  // egress byte count is exact; when a flow lost nothing, the runtime's
  // egress hash must equal the hash of the expected frames.
  const auto flows1 = flow_stats(*runner);
  for (std::size_t f = 0; f < flows1.size(); ++f) {
    const auto& a = flows0[f];
    const auto& b = flows1[f];
    const auto& acc = source->accepted()[f];
    const int cell = static_cast<int>(f) / w.ues;
    const auto cfg = pipeline::MultiCellRunner::flow_config(
        mc, cell, static_cast<int>(f) % w.ues);
    const std::size_t size = acc.empty() ? 0 : acc.front()->bytes.size();
    bool ok = b.delivered <= b.crc_ok &&
              b.egress_bytes ==
                  b.delivered * (size + net::kGtpuHeaderBytes);
    for (const auto* p : acc) ok = ok && p->bytes.size() == size;
    if (ok && b.packets == acc.size() && b.delivered == b.packets) {
      std::uint64_t h = bench::kFnvBasis;
      for (const auto* p : acc) {
        h = frame_hash(h, net::gtpu_encapsulate(cfg.teid, p->bytes));
      }
      ok = h == b.egress_hash;
      ++out.hashed_flows;
    }
    if (!ok) {
      ++out.wrong_flows;
      continue;
    }
    const std::uint64_t delivered = b.delivered - a.delivered;
    out.delivered += delivered;
    out.delivered_bytes += delivered * size;
    out.transmissions += b.transmissions - a.transmissions;
    out.tbs += b.packets - a.packets;
    if (size > 0) {
      note_loss(out.losses, cfg.mcs, tb_bytes_for(cfg, size),
                (b.packets - a.packets) - delivered);
    }
  }

  const double late_p99 = quantile(out.late_s, 0.99);
  if (late_p99 > kMaxLateS) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "gen.late_p99_us %.1f > %.0f", late_p99 * 1e6,
                  kMaxLateS * 1e6);
    out.invalid = buf;
  } else if (out.offered != meas_n) {
    out.invalid = "offered count differs from rate x seconds";
  } else if (out.totals.dropped_ttis > 0 || out.unmapped > 0) {
    out.invalid = "TTIs dropped or packets unmatched to a TTI";
  }
  return out;
}

// --- Reporting ------------------------------------------------------------

struct Report {
  std::map<std::string, double> values;  ///< contract metrics by name
  std::vector<std::pair<std::string, std::string>> extra;
  std::uint64_t attempted = 0, failed = 0;
  bool correct = true;
  Losses losses;

  void set(const std::string& name, double v) { values[name] = v; }
  void note(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    extra.emplace_back(key, buf);
  }
};

/// The run's metrics in table order; every table entry must be set.
std::vector<std::pair<const MetricDef*, double>> ordered(
    const Report& r, std::span<const MetricDef> table) {
  std::vector<std::pair<const MetricDef*, double>> out;
  for (const auto& m : table) out.emplace_back(&m, r.values.at(m.name));
  return out;
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

void print_report(const Report& r, std::span<const MetricDef> table) {
  for (const auto& [k, v] : r.extra) std::printf("# %s: %s\n", k.c_str(), v.c_str());
  for (const auto& [key, n] : r.losses) {
    std::printf("# loss: mcs=%d blocks=%d k=%d lost=%" PRIu64 "\n",
                std::get<0>(key), std::get<1>(key), std::get<2>(key), n);
  }
  for (const auto& [m, v] : ordered(r, table)) {
    std::printf("%s %.10g %s\n", m->name, v, m->unit);
  }
  std::printf("# correct: %s  attempted: %" PRIu64 "  failed: %" PRIu64 "\n",
              r.correct ? "true" : "false", r.attempted, r.failed);
}

bool write_report_json(const std::string& path, const Workload& w,
                       std::uint64_t seed, const bench::Inputs& in,
                       const char* mode, int threads, const Report& r,
                       std::span<const MetricDef> table) {
  if (path.empty()) return true;
  std::ostringstream j;
  char buf[256];
  j << "{\n  \"schema\": \"vran-bench-suite-v1\",\n";
  j << "  \"meta\": " << bench::meta_json(w.workers) << ",\n";
  j << "  \"threads\": " << threads << ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"workload\": \"%s\",\n  \"seed\": %" PRIu64
                ",\n  \"mode\": \"%s\",\n  \"input_digest\": \"%016" PRIx64
                "\",\n",
                w.name, seed, mode, in.digest);
  j << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"correct\": %s,\n  \"attempted\": %" PRIu64
                ",\n  \"failed\": %" PRIu64 ",\n",
                r.correct ? "true" : "false", r.attempted, r.failed);
  j << buf << "  \"metrics\": {";
  const char* sep = "";
  for (const auto& [m, v] : ordered(r, table)) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n    \"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  sep, m->name, v, m->unit);
    j << buf;
    sep = ",";
  }
  j << "\n  },\n  \"extra\": {";
  for (std::size_t i = 0; i < r.extra.size(); ++i) {
    j << (i ? ",\n    \"" : "\n    \"") << json_escape(r.extra[i].first)
      << "\": \"" << json_escape(r.extra[i].second) << "\"";
  }
  j << "\n  },\n  \"losses\": [";
  bool first = true;
  for (const auto& [key, n] : r.losses) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"mcs\": %d, \"blocks\": %d, \"k\": %d, "
                  "\"lost\": %" PRIu64 "}",
                  first ? "" : ",", std::get<0>(key), std::get<1>(key),
                  std::get<2>(key), n);
    j << buf;
    first = false;
  }
  j << "\n  ]\n}\n";
  std::ofstream f(path);
  f << j.str();
  return static_cast<bool>(f);
}

// --- Modes ----------------------------------------------------------------

Report untraced_closed(const Workload& w, const bench::Inputs& in,
                       double seconds, int ttis) {
  const ClosedRun run = run_closed(w, in, w.workers, kSetupReps, seconds, ttis);
  Report r;
  double busy = 0;
  for (const double s : run.tti_s) busy += s;
  r.set("latency_p50_us", quantile(run.tti_s, 0.50) * 1e6);
  r.set("latency_p99_us", quantile(run.tti_s, 0.99) * 1e6);
  r.set("goodput_mbps", ratio(double(run.delivered_bytes) * 8.0, busy) / 1e6);
  r.set("delivered_ratio", ratio(double(run.delivered), double(run.packets)));
  r.set("setup_s", quantile(run.setup_s, 0.5));
  r.note("ttis", double(run.tti_s.size()));
  r.note("latency_mean_us", mean(run.tti_s) * 1e6);
  r.attempted = run.packets;
  r.failed = run.packets - run.delivered;
  r.correct = run.wrong == 0;
  r.losses = run.losses;
  return r;
}

Report untraced_open(const Workload& w, const bench::Inputs& in,
                     double seconds, OpenRun& run) {
  run = run_open(w, in, kSetupReps, seconds);
  Report r;
  r.set("latency_p50_us", quantile(run.latency_s, 0.50) * 1e6);
  r.set("latency_p99_us", quantile(run.latency_s, 0.99) * 1e6);
  r.set("goodput_mbps",
        ratio(double(run.delivered_bytes) * 8.0, run.window_s) / 1e6);
  r.set("delivered_ratio", ratio(double(run.delivered), double(run.offered)));
  r.set("setup_s", quantile(run.setup_s, 0.5));
  r.attempted = run.offered;
  r.failed = run.offered - run.delivered;
  r.correct = run.wrong_flows == 0;
  r.losses = run.losses;
  return r;
}

/// Open-loop runtime observations that are not contract metrics.
void note_open_extras(Report& r, const OpenRun& run) {
  const double rate = ratio(double(run.offered), run.window_s);
  r.note("latency_samples", double(run.latency_s.size()));
  r.note("net.offer_p50_us", quantile(run.offer_s, 0.50) * 1e6);
  r.note("net.offer_p99_us", quantile(run.offer_s, 0.99) * 1e6);
  r.note("multicell.queue_wait_us", ratio(mean(run.backlog), rate) * 1e6);
  r.note("cell_shard.tti_p50_us", run.tti_hist_p50_us);
  r.note("gen.late_p99_us", quantile(run.late_s, 0.99) * 1e6);
  r.note("obs.telemetry_ticks", double(run.telemetry_ticks));
  r.note("egress_hash_checked_flows", double(run.hashed_flows));
  r.note("refused", double(run.refused));
  r.note("ttis", double(run.totals.ttis));
  r.note("deadline_miss", double(run.totals.deadline_miss));
  r.note("degraded_ttis", double(run.totals.degraded));
}

/// Per-layer run: counts from an untraced pass over half the budget, then
/// the traced replay over the other half.
Report traced(const Workload& w, const bench::Inputs& in, double seconds,
              int ttis, const std::string& trace_path) {
  Report r;
  double untraced_tti_us = 0;
  auto& counts = r.values;
  if (w.loop == Loop::kClosed) {
    // One worker, so the untraced TTI time is comparable with the
    // one-thread replay; outputs are identical for any worker count.
    const ClosedRun run = run_closed(w, in, 1, 1, seconds / 2, ttis);
    const double n = double(run.tti_s.size());
    untraced_tti_us = mean(run.tti_s) * 1e6;
    counts["ttis"] = n;
    counts["harq.tx_per_tb"] =
        ratio(double(run.transmissions), double(run.packets));
    counts["turbo.iterations_mean"] =
        ratio(double(run.iterations), double(run.packets));
    counts["allocs_per_tti"] = ratio(double(run.allocs), n);
    counts["decode_sched.lane_fill"] = run.sched.fill();
    counts["decode_sched.windowed_share"] =
        ratio(double(run.sched.windowed_blocks), double(run.sched.blocks));
    counts["code_blocks_per_tti"] = ratio(double(run.code_blocks), n);
    counts["deadline_met_ratio"] = ratio(
        double(std::count_if(run.tti_s.begin(), run.tti_s.end(),
                             [](double s) { return s <= kBudgetS; })),
        n);
    // A closed loop has no runtime queue: nothing is refused, waits,
    // is stolen or degraded.
    for (const char* k :
         {"net.refused_ratio", "multicell.backlog_p99", "multicell.steal_ratio",
          "cell_shard.degraded_ratio"}) {
      counts[k] = 0.0;
    }
    r.attempted = run.packets;
    r.failed = run.packets - run.delivered;
    r.correct = run.wrong == 0;
  } else {
    OpenRun run = run_open(w, in, 1, seconds / 2);
    if (!run.invalid.empty()) {
      r.extra.emplace_back("invalid", run.invalid);
      return r;
    }
    const auto& t = run.totals;
    const double n = double(t.ttis);
    untraced_tti_us = ratio(run.tti_ns_sum, double(t.packets)) / 1e3;
    counts["ttis"] = n;
    counts["harq.tx_per_tb"] =
        ratio(double(run.transmissions), double(run.tbs));
    counts["decode_sched.lane_fill"] = run.sched.fill();
    counts["decode_sched.windowed_share"] =
        ratio(double(run.sched.windowed_blocks), double(run.sched.blocks));
    counts["code_blocks_per_tti"] = ratio(double(run.sched.blocks), n);
    counts["deadline_met_ratio"] =
        ratio(double(t.ttis - t.deadline_miss), double(t.ttis + t.dropped_ttis));
    counts["net.refused_ratio"] =
        ratio(double(run.refused), double(run.offered));
    counts["multicell.backlog_p99"] = quantile(run.backlog, 0.99);
    counts["multicell.steal_ratio"] = ratio(double(t.steals), n);
    counts["cell_shard.degraded_ratio"] = ratio(double(t.degraded), n);
    note_open_extras(r, run);
    r.attempted = run.offered;
    r.failed = run.offered - run.delivered;
    r.correct = run.wrong_flows == 0;
  }

  const bench::ReplayResult rep =
      bench::replay(w, in, seconds / 2, ttis, kTraceKeepTtis);
  const double per_tti = rep.ttis > 0 ? 1e-3 / double(rep.ttis) : 0.0;
  double traced_us = 0, enb_us = 0;
  for (int l = bench::kUeEncode; l < bench::kLayerCount; ++l) {
    const double us = double(rep.self_ns[static_cast<std::size_t>(l)]) * per_tti;
    traced_us += us;
    if (bench::is_enb_layer(l)) enb_us += us;
  }
  for (const bench::Layer l : kReportedLayers) {
    r.set(std::string(bench::layer_name(l)) + "_us",
          double(rep.self_ns[static_cast<std::size_t>(l)]) * per_tti);
  }
  r.set("enb.rx_us", enb_us);
  r.set("pipeline.unattributed_us", untraced_tti_us - traced_us);
  if (w.loop == Loop::kOpen) {
    counts["turbo.iterations_mean"] =
        ratio(double(rep.tb_iterations), double(rep.tbs));
    counts["allocs_per_tti"] =
        ratio(double(rep.decode_allocs), double(rep.ttis));
  }
  r.note("replay.ttis", double(rep.ttis));
  r.note("replay.tti_us", double(rep.self_ns[bench::kTti] +
                                 rep.self_ns[bench::kRound]) * per_tti +
                              traced_us);
  r.note("replay.glue_us",
         double(rep.self_ns[bench::kTti] + rep.self_ns[bench::kRound]) *
             per_tti);
  r.note("untraced.tti_us", untraced_tti_us);
  r.note("alloc_counting", alloc_stats::interposed() ? 1.0 : 0.0);
  r.correct = r.correct && rep.wrong == 0;
  if (!bench::write_chrome_trace(rep.spans, trace_path)) {
    r.extra.emplace_back("invalid", "cannot write " + trace_path);
  }
  return r;
}

// --- --check-names ----------------------------------------------------------

bool load_json(const std::string& path, tools::JsonValue& out) {
  std::ifstream f(path);
  if (!f) return false;
  std::stringstream ss;
  ss << f.rdbuf();
  return tools::JsonParser(ss.str()).parse(out);
}

/// Compare one BENCHMARK.json array of {name, ...} objects with a table.
bool same_names(const tools::JsonValue& root, const char* key,
                const std::vector<std::string>& want,
                const std::vector<std::string>& units) {
  const auto* arr = root.find(key);
  std::vector<std::string> got, got_units;
  if (arr != nullptr && arr->type == tools::JsonValue::Type::kArray) {
    for (const auto& e : arr->array) {
      const auto* n = e.find("name");
      const auto* u = e.find("unit");
      got.push_back(n != nullptr ? n->str : "");
      got_units.push_back(u != nullptr ? u->str : "");
    }
  }
  bool ok = got == want;
  if (!units.empty()) ok = ok && got_units == units;
  if (!ok) {
    std::printf("%s differ:\n  file:  ", key);
    for (std::size_t i = 0; i < got.size(); ++i) {
      std::printf("%s[%s] ", got[i].c_str(), got_units[i].c_str());
    }
    std::printf("\n  binary: ");
    for (std::size_t i = 0; i < want.size(); ++i) {
      std::printf("%s[%s] ", want[i].c_str(),
                  units.empty() ? "" : units[i].c_str());
    }
    std::printf("\n");
  }
  return ok;
}

int check_names(const std::string& path) {
  tools::JsonValue root;
  if (!load_json(path, root)) {
    std::printf("cannot parse %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> names, units;
  for (const auto& w : bench::workloads()) names.push_back(w.name);
  bool ok = same_names(root, "workloads", names, {});
  names.clear();
  for (const auto& m : kEndToEnd) {
    names.push_back(m.name);
    units.push_back(m.unit);
  }
  ok = same_names(root, "end_to_end", names, units) && ok;
  names.clear();
  units.clear();
  for (const auto& m : kPerLayer) {
    names.push_back(m.name);
    units.push_back(m.unit);
  }
  ok = same_names(root, "per_layer", names, units) && ok;
  std::printf("%s: names %s\n", path.c_str(), ok ? "match" : "DIFFER");
  return ok ? 0 : 1;
}

// --- CLI --------------------------------------------------------------------

const char* arg_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool has_arg(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int usage() {
  std::printf(
      "usage: vran_bench --workload W [--seed S] [--seconds T] [--ttis N]\n"
      "                  [--json PATH] [--trace TRACE.json] [--dry-run]\n"
      "                  [--snr-db X]\n"
      "       vran_bench --check-names BENCHMARK.json\n"
      "workloads:");
  for (const auto& w : bench::workloads()) std::printf(" %s", w.name);
  std::printf("\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* path = arg_value(argc, argv, "--check-names")) {
    return check_names(path);
  }
  const char* wname = arg_value(argc, argv, "--workload");
  const Workload* found =
      wname != nullptr ? bench::find_workload(wname) : nullptr;
  if (found == nullptr) return usage();
  Workload workload = *found;
  if (const char* snr = arg_value(argc, argv, "--snr-db")) {
    workload.snr_db = std::atof(snr);
  }
  const Workload* w = &workload;
  const char* seed_arg = arg_value(argc, argv, "--seed");
  const char* seconds_arg = arg_value(argc, argv, "--seconds");
  const char* ttis_arg = arg_value(argc, argv, "--ttis");
  const char* json_arg = arg_value(argc, argv, "--json");
  const char* trace_arg = arg_value(argc, argv, "--trace");
  const std::uint64_t seed =
      seed_arg != nullptr ? std::strtoull(seed_arg, nullptr, 0) : 1;
  const double seconds = seconds_arg != nullptr ? std::atof(seconds_arg) : 10;
  const int ttis = ttis_arg != nullptr ? std::atoi(ttis_arg) : 0;
  if (!(seconds > 0) || ttis < 0) return usage();

  // Open loop: the emission window of an untraced run, or of the traced
  // run's untraced half.
  const double open_s = trace_arg != nullptr ? seconds / 2 : seconds;
  const bench::Inputs in =
      bench::generate_inputs(*w, seed, kPoolTtis, kOpenWarmupS, open_s);
  std::printf("# workload: %s  seed: %" PRIu64 "  input_digest: %016" PRIx64
              "\n",
              w->name, seed, in.digest);
  if (has_arg(argc, argv, "--dry-run")) return 0;

  const int threads = w->loop == Loop::kOpen ? kOpenThreads : w->workers;
  std::printf("# meta: %s\n# threads: %d\n",
              bench::meta_json(w->workers).c_str(), threads);
  if (w->loop == Loop::kOpen &&
      ThreadPool::hardware_threads() < kOpenThreads) {
    std::printf("invalid: %d hardware threads, %s needs %d\n",
                ThreadPool::hardware_threads(), w->name, kOpenThreads);
    return 2;
  }

  Report r;
  const char* mode = "untraced";
  if (trace_arg != nullptr) {
    mode = "traced";
    r = traced(*w, in, seconds, ttis, trace_arg);
  } else if (w->loop == Loop::kClosed) {
    r = untraced_closed(*w, in, seconds, ttis);
  } else {
    OpenRun run;
    r = untraced_open(*w, in, seconds, run);
    note_open_extras(r, run);
    if (!run.invalid.empty()) r.extra.emplace_back("invalid", run.invalid);
  }
  for (const auto& [k, v] : r.extra) {
    if (k == "invalid") {
      std::printf("invalid: %s\n", v.c_str());
      return 2;
    }
  }
  const std::span<const MetricDef> table =
      trace_arg != nullptr ? std::span<const MetricDef>(kPerLayer)
                           : std::span<const MetricDef>(kEndToEnd);
  print_report(r, table);
  if (!write_report_json(json_arg != nullptr ? json_arg : "", *w, seed, in,
                         mode, threads, r, table)) {
    std::printf("cannot write %s\n", json_arg);
    return 1;
  }
  return r.correct ? 0 : 3;
}
