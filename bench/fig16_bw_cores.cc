// Figure 16: sustainable bandwidth per core and cores required for a
// 300 Mbps RAN station, original vs APCM, per ISA — measured from the
// decode pipeline's sustained throughput.
//
// Paper: 16.4 -> 18.5 (SSE), 21.6 -> 26.0 (AVX2), 25.5 -> 32.9 (AVX512)
// Mbps/core; cores for 300 Mbps: 18 -> 16, 14 -> 12, 12 -> 9.
//
// Second section (beyond the paper's figure): scale the same
// data-arrangement + turbo-decode workload across a worker pool —
// in-pipeline per-code-block workers and the multi-UE BatchRunner — and
// report throughput, speedup over 1 worker, and the decode chain's
// per-stage CPU shares.
//
// Per-run statistics (busy time, stage shares, TTI latency percentiles)
// come from a per-configuration obs::MetricsRegistry; `--json <path>`
// dumps every row.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "common/threadpool.h"
#include "net/pktgen.h"
#include "obs/metrics.h"
#include "pipeline/batch_runner.h"
#include "pipeline/pipeline.h"

using namespace vran;

namespace {

std::string g_json;       // accumulated --json rows
bool g_json_first = true;

void json_row(const std::string& body) {
  if (!g_json_first) g_json += ",\n";
  g_json_first = false;
  g_json += "    " + body;
}

double hist_seconds(const obs::Snapshot& s, const char* name) {
  const auto* h = s.histogram(name);
  return h ? double(h->sum) / 1e9 : 0.0;
}

// Aggregate goodput of one BatchRunner configuration over a fixed wall
// budget; returns Mbps of delivered egress.
double batch_mbps(pipeline::BatchRunner& runner, int n_flows,
                  double budget_seconds) {
  std::vector<net::PacketGenerator> gens;
  for (int u = 0; u < n_flows; ++u) {
    net::FlowConfig fc;
    fc.packet_bytes = 1500;
    fc.seed = 40 + static_cast<std::uint64_t>(u);
    gens.emplace_back(fc);
  }
  const auto next_batch = [&] {
    std::vector<std::vector<std::uint8_t>> pkts;
    pkts.reserve(static_cast<std::size_t>(n_flows));
    for (auto& g : gens) pkts.push_back(g.next());
    return pkts;
  };
  runner.run_tti(next_batch());  // warmup
  std::uint64_t bits = 0;
  Stopwatch sw;
  while (sw.seconds() < budget_seconds) {
    for (const auto& r : runner.run_tti(next_batch())) {
      if (r.delivered) bits += r.egress.size() * 8;
    }
  }
  return double(bits) / sw.seconds() / 1e6;
}

void worker_sweep(bool want_json) {
  bench::print_header(
      "Worker-pool scaling — APCM decode chain across cores (beyond Fig. 16)");
  const int hw = ThreadPool::hardware_threads();
  std::printf("host has %d hardware thread(s)\n\n", hw);

  pipeline::PipelineConfig cfg;
  cfg.isa = best_isa();
  cfg.snr_db = 24.0;
  cfg.arrange_method = arrange::Method::kApcm;

  std::vector<int> counts = {1, 2, 4, 8};
  counts.erase(std::remove_if(counts.begin(), counts.end(),
                              [&](int c) { return c > std::max(hw, 1); }),
               counts.end());
  if (counts.empty()) counts.push_back(1);

  // (a) Multi-UE: 8 independent flows per TTI through the BatchRunner.
  const int n_flows = 8;
  std::printf("multi-UE (%d flows, %s):\n", n_flows, isa_name(cfg.isa));
  std::printf("%-9s %12s %9s %14s\n", "workers", "Mbps", "speedup",
              "tti p95 us");
  bench::print_rule();
  double base = 0;
  for (int w : counts) {
    obs::MetricsRegistry reg;
    std::vector<pipeline::PipelineConfig> flows;
    for (int u = 0; u < n_flows; ++u) {
      auto fc = cfg;
      fc.rnti = static_cast<std::uint16_t>(0x100 + u);
      fc.noise_seed = 500 + static_cast<std::uint64_t>(u);
      fc.metrics = &reg;
      flows.push_back(fc);
    }
    pipeline::BatchRunner runner(pipeline::BatchRunner::Direction::kUplink,
                                 flows, w);
    const double mbps = batch_mbps(runner, n_flows, 1.0);
    if (w == 1) base = mbps;
    const auto snap = reg.snapshot();
    const auto* tti = snap.histogram("batch.tti_ns");
    const double tti_p95_us = tti ? tti->quantile(0.95) / 1e3 : 0.0;
    std::printf("%-9d %12.2f %8.2fx %14.1f\n", w, mbps,
                base > 0 ? mbps / base : 0.0, tti_p95_us);
    if (want_json) {
      json_row("{\"section\":\"multi_ue\",\"workers\":" + std::to_string(w) +
               ",\"mbps\":" + std::to_string(mbps) + ",\"tti_us\":" +
               bench::quantiles_us_json(tti ? *tti : obs::HistogramStats{}) +
               "}");
    }
  }

  // (b) In-pipeline: per-code-block workers inside one uplink pipeline.
  std::printf("\nper-code-block (single flow, 1500 B TB, %s):\n",
              isa_name(cfg.isa));
  std::printf("%-9s %12s %9s %26s\n", "workers", "Mbps", "speedup",
              "decode-chain stage shares");
  bench::print_rule();
  base = 0;
  for (int w : counts) {
    obs::MetricsRegistry reg;
    auto pc = cfg;
    pc.num_workers = w;
    pc.metrics = &reg;
    pipeline::UplinkPipeline ul(pc);
    net::FlowConfig fc;
    fc.packet_bytes = 1500;
    net::PacketGenerator gen(fc);
    ul.send_packet(gen.next());  // warmup
    reg.reset();
    std::uint64_t bits = 0;
    Stopwatch sw;
    while (sw.seconds() < 1.0) {
      const auto r = ul.send_packet(gen.next());
      if (r.delivered) bits += r.egress.size() * 8;
    }
    const double mbps = double(bits) / sw.seconds() / 1e6;
    if (w == 1) base = mbps;
    const auto snap = reg.snapshot();
    const double dematch = hist_seconds(snap, "stage.rate_dematch_ns");
    const double arrange = hist_seconds(snap, "stage.arrange_ns");
    const double decode = hist_seconds(snap, "stage.turbo_decode_ns");
    const double chain = dematch + arrange + decode;
    std::printf("%-9d %12.2f %8.2fx  dematch %2.0f%% arrange %2.0f%% map %2.0f%%\n",
                w, mbps, base > 0 ? mbps / base : 0.0,
                chain > 0 ? 100 * dematch / chain : 0.0,
                chain > 0 ? 100 * arrange / chain : 0.0,
                chain > 0 ? 100 * decode / chain : 0.0);
    if (want_json) {
      json_row("{\"section\":\"per_code_block\",\"workers\":" +
               std::to_string(w) + ",\"mbps\":" + std::to_string(mbps) +
               ",\"chain_share\":{\"rate_dematch\":" +
               std::to_string(chain > 0 ? dematch / chain : 0.0) +
               ",\"arrange\":" +
               std::to_string(chain > 0 ? arrange / chain : 0.0) +
               ",\"turbo_decode\":" +
               std::to_string(chain > 0 ? decode / chain : 0.0) + "}}");
    }
  }
  bench::print_rule();
  std::printf(
      "multi-UE scales with independent packets; per-code-block scaling is\n"
      "bounded by code blocks per TB (2-3 at 1500 B) and stage shares show\n"
      "where the remaining serial time goes.\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_out_path(argc, argv);
  bench::print_header(
      "Fig. 16 — Mbps per core and cores for 300 Mbps (measured)");

  std::printf("%-10s %-9s %12s %14s\n", "isa", "method", "Mbps/core",
              "cores@300Mbps");
  bench::print_rule();

  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) {
      std::printf("%-10s (unavailable on this CPU)\n", isa_name(isa));
      continue;
    }
    // Interleave the two mechanisms packet-by-packet so OS jitter lands
    // on both alike; CPU attribution excludes the synthetic channel
    // (busy time = the registry's pipeline.proc_ns sum).
    obs::MetricsRegistry reg_orig, reg_apcm;
    pipeline::PipelineConfig cfg;
    cfg.isa = isa;
    cfg.snr_db = 24.0;
    cfg.arrange_method = arrange::Method::kExtract;
    cfg.metrics = &reg_orig;
    pipeline::UplinkPipeline ul_orig(cfg);
    cfg.arrange_method = arrange::Method::kApcm;
    cfg.metrics = &reg_apcm;
    pipeline::UplinkPipeline ul_apcm(cfg);
    net::FlowConfig fc;
    fc.packet_bytes = 1500;
    net::PacketGenerator gen_a(fc), gen_b(fc);
    ul_orig.send_packet(gen_a.next());
    ul_apcm.send_packet(gen_b.next());
    reg_orig.reset();
    reg_apcm.reset();

    std::uint64_t bits[2] = {0, 0};
    Stopwatch sw;
    while (sw.seconds() < 1.6) {
      const auto ro = ul_orig.send_packet(gen_a.next());
      if (ro.delivered) bits[0] += ro.egress.size() * 8;
      const auto ra = ul_apcm.send_packet(gen_b.next());
      if (ra.delivered) bits[1] += ra.egress.size() * 8;
    }
    for (int m = 0; m < 2; ++m) {
      const auto snap = (m == 0 ? reg_orig : reg_apcm).snapshot();
      const double busy = hist_seconds(snap, "pipeline.proc_ns");
      const double mbps = busy > 0 ? double(bits[m]) / busy / 1e6 : 0.0;
      std::printf("%-10s %-9s %12.2f %14.0f\n", isa_name(isa),
                  m == 0 ? "extract" : "apcm", mbps,
                  mbps > 0 ? std::ceil(300.0 / mbps) : 0.0);
      if (!json_path.empty()) {
        json_row("{\"section\":\"mbps_per_core\",\"isa\":\"" +
                 std::string(isa_name(isa)) + "\",\"method\":\"" +
                 (m == 0 ? "extract" : "apcm") +
                 "\",\"mbps_per_core\":" + std::to_string(mbps) +
                 ",\"cores_300mbps\":" +
                 std::to_string(mbps > 0 ? std::ceil(300.0 / mbps) : 0.0) +
                 "}");
      }
    }
  }
  bench::print_rule();
  std::printf(
      "paper: Mbps/core 16.4->18.5 (SSE), 21.6->26.0 (AVX2), 25.5->32.9\n"
      "(AVX512); cores for 300 Mbps 18->16, 14->12, 12->9\n");

  worker_sweep(!json_path.empty());

  if (!json_path.empty()) {
    bench::write_json(json_path,
                      "{\n  \"bench\":\"fig16_bw_cores\",\n  \"meta\": " +
                          bench::meta_json() + ",\n  \"rows\":[\n" + g_json +
                          "\n  ]\n}");
  }
  return 0;
}
