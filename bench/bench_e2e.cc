// End-to-end TTI latency / allocation benchmark for the decode hot path.
//
// Drives a multi-flow uplink BatchRunner for N TTIs per configuration
// (ISA tier x worker count) and reports, per configuration:
//   * p50 / p99 / mean TTI wall latency (sorted per-TTI samples, not a
//     histogram approximation),
//   * allocations per TTI on the decode chain (PacketResult::decode_allocs
//     summed across flows; this binary links the counting allocator, so
//     the numbers are real heap calls — 0 in the steady state). The
//     counter is process-global, so with concurrent flows one flow's
//     decode bracket would also count another flow's transmit-path
//     allocations; since BatchRunner always runs each flow's decode
//     serially (flow pipelines are forced to one worker), the workers=1
//     measurement is the exact decode-path number for every worker
//     count and is what multi-worker rows report,
//   * per-stage CPU microseconds per TTI ("stage.<key>_ns" histogram
//     delta of the flows' private registry / TTIs, under the stage
//     table's display labels).
//
// `--json <path>` writes the "vran-bench-e2e-v1" document that
// tools/bench_compare gates CI on (see TESTING.md for the schema);
// bench/baselines/BENCH_PR4.json is the committed reference. The JSON
// always carries a "meta" provenance block (git SHA, CPU model, ISA
// tier, PMU availability — bench_util.h meta_json).
//
// `--hw` additionally runs each configuration with hardware PMU
// attribution on (PipelineConfig::pmu): per-stage cycles/instructions
// land in the same private registry and the JSON gains a per-config
// "pmu" object with measured IPC and backend-bound per stage. On hosts
// without perf access (or VRAN_PMU=off) the mode still runs — the
// object reports "available": false and no stages.
//
// Flags: --ttis N (default 300)  --flows N (default 4)
//        --payload BYTES (default 1500)  --json PATH  --hw
//        --no-batch  (disable batched-lane turbo decoding — the control
//                     for batched-vs-windowed comparisons; recorded as
//                     "batch_decode" in the JSON)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/alloc_stats.h"
#include "common/cpu_features.h"
#include "common/timer.h"
#include "net/pktgen.h"
#include "pipeline/batch_runner.h"

using namespace vran;

namespace {

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

int int_flag(int argc, char** argv, const char* name, int def) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
      return std::atoi(argv[i + 1]);
    }
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return std::atoi(argv[i] + len + 1);
    }
  }
  return def;
}

struct ConfigResult {
  IsaLevel isa;
  int workers = 1;
  double p50_us = 0, p99_us = 0, mean_us = 0;
  double allocs_per_tti = 0;
  double crc_ok_rate = 0;
  std::vector<pipeline::StageEntry> stages;  // seconds, measured window
  /// Cross-TB decode-scheduler delta over the measured window: SIMD lane
  /// fill and grouping shape (see DecodeScheduler::Stats).
  pipeline::DecodeScheduler::Stats sched;
  int ttis = 0;
  bool hw = false;            // --hw requested
  bool pmu_available = false; // counters actually delivered
  // Measured-window PMU delta per stage (only stages that ran).
  std::vector<std::pair<std::string, obs::PmuReading>> pmu_stages;
};

// Stage names present in `snap` as "pmu.stage.<name>.cycles" counters.
std::vector<std::string> pmu_stage_names(const obs::Snapshot& snap) {
  constexpr std::string_view kPrefix = "pmu.stage.";
  constexpr std::string_view kSuffix = ".cycles";
  std::vector<std::string> names;
  for (const auto& [name, value] : snap.counters) {
    if (name.size() <= kPrefix.size() + kSuffix.size()) continue;
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    if (name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    names.push_back(name.substr(
        kPrefix.size(), name.size() - kPrefix.size() - kSuffix.size()));
  }
  return names;
}

ConfigResult run_config(IsaLevel isa, int workers, int ttis, int flows,
                        int payload, bool hw, bool batch) {
  ConfigResult out;
  out.isa = isa;
  out.workers = workers;
  out.ttis = ttis;
  out.hw = hw;

  // Declared before the runner so stage/PMU counter handles the
  // pipelines hold stay valid for the runner's whole lifetime.
  obs::MetricsRegistry reg;

  std::vector<pipeline::PipelineConfig> cfgs(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    auto& cfg = cfgs[static_cast<std::size_t>(f)];
    cfg.isa = isa;
    cfg.batch_decode = batch;
    cfg.rnti = static_cast<std::uint16_t>(0x1000 + f);
    cfg.noise_seed = 7u + static_cast<std::uint64_t>(f);
    // Latency comes from wall-clock samples below; the private registry
    // holds the stage histograms (and, with --hw, the PMU counters).
    cfg.metrics = &reg;
    cfg.pmu = hw;
    cfg.trace = nullptr;
  }
  pipeline::BatchRunner runner(pipeline::BatchRunner::Direction::kUplink,
                               std::move(cfgs), workers);

  net::FlowConfig fc;
  fc.packet_bytes = payload;
  std::vector<std::vector<std::uint8_t>> packets;
  packets.reserve(static_cast<std::size_t>(flows));
  net::PacketGenerator gen(fc);
  for (int f = 0; f < flows; ++f) packets.push_back(gen.next());

  std::vector<pipeline::PacketResult> results;
  const int warmup = std::max(5, ttis / 20);
  for (int i = 0; i < warmup; ++i) runner.run_tti(packets, results);

  const obs::Snapshot snap_before = reg.snapshot();
  const auto sched_before = runner.decode_scheduler()->stats();
  std::vector<double> samples(static_cast<std::size_t>(ttis));
  std::uint64_t allocs = 0, ok = 0, sent = 0;
  for (int t = 0; t < ttis; ++t) {
    Stopwatch sw;
    runner.run_tti(packets, results);
    samples[static_cast<std::size_t>(t)] = sw.seconds();
    for (const auto& r : results) {
      allocs += r.decode_allocs;
      ok += r.crc_ok ? 1 : 0;
      ++sent;
    }
  }
  const obs::Snapshot snap_after = reg.snapshot();
  {
    const auto& sa = runner.decode_scheduler()->stats();
    out.sched.blocks = sa.blocks - sched_before.blocks;
    out.sched.batch_groups = sa.batch_groups - sched_before.batch_groups;
    out.sched.windowed_blocks =
        sa.windowed_blocks - sched_before.windowed_blocks;
    out.sched.lanes_filled = sa.lanes_filled - sched_before.lanes_filled;
    out.sched.lanes_available =
        sa.lanes_available - sched_before.lanes_available;
    out.sched.smallk_rerouted =
        sa.smallk_rerouted - sched_before.smallk_rerouted;
    for (const auto& [k, groups] : sa.groups_per_k) {
      const auto it = sched_before.groups_per_k.find(k);
      const std::uint64_t base =
          it == sched_before.groups_per_k.end() ? 0 : it->second;
      if (groups > base) out.sched.groups_per_k[k] = groups - base;
    }
  }

  std::sort(samples.begin(), samples.end());
  const auto at = [&](double q) {
    const auto idx = static_cast<std::size_t>(q * double(samples.size() - 1));
    return samples[idx] * 1e6;
  };
  out.p50_us = at(0.50);
  out.p99_us = at(0.99);
  double sum = 0;
  for (const double s : samples) sum += s;
  out.mean_us = sum / double(samples.size()) * 1e6;
  out.allocs_per_tti = double(allocs) / double(ttis);
  out.crc_ok_rate = sent == 0 ? 0 : double(ok) / double(sent);

  // Per-stage delta over the measured window.
  const auto before = pipeline::stage_entries(snap_before);
  for (auto e : pipeline::stage_entries(snap_after)) {
    for (const auto& b : before) {
      if (b.label == e.label) {
        e.seconds -= b.seconds;
        break;
      }
    }
    out.stages.push_back(e);
  }

  if (hw) {
    out.pmu_available = obs::pmu_available();
    for (const auto& name : pmu_stage_names(snap_after)) {
      const std::string prefix = "pmu.stage." + name + ".";
      const auto t0 = obs::pmu_reading_from(snap_before, prefix);
      const auto t1 = obs::pmu_reading_from(snap_after, prefix);
      // A stage that first fired inside the measured window has no
      // valid baseline; its whole count is the window's.
      const auto delta = t0.valid ? t1.delta_since(t0) : t1;
      if (delta.valid) out.pmu_stages.emplace_back(name, delta);
    }
  }
  return out;
}

std::string to_json(const std::vector<ConfigResult>& rows, int ttis,
                    int flows, int payload, bool batch) {
  std::string j;
  char buf[256];
  j += "{\n  \"schema\": \"vran-bench-e2e-v1\",\n";
  j += "  \"meta\": " + bench::meta_json() + ",\n";
  std::snprintf(buf, sizeof(buf),
                "  \"host_best_isa\": \"%s\",\n  \"alloc_counting\": %s,\n"
                "  \"batch_decode\": %s,\n"
                "  \"ttis\": %d,\n  \"flows\": %d,\n  \"payload_bytes\": %d,\n",
                isa_name(best_isa()),
                alloc_stats::interposed() ? "true" : "false",
                batch ? "true" : "false", ttis, flows, payload);
  j += buf;
  j += "  \"configs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"isa\": \"%s\", \"workers\": %d, \"tti_us\": "
                  "{\"p50\": %.2f, \"p99\": %.2f, \"mean\": %.2f}, "
                  "\"allocs_per_tti\": %.3f, \"crc_ok_rate\": %.4f,\n",
                  isa_name(r.isa), r.workers, r.p50_us, r.p99_us, r.mean_us,
                  r.allocs_per_tti, r.crc_ok_rate);
    j += buf;
    j += "     \"stages_us_per_tti\": {";
    for (std::size_t s = 0; s < r.stages.size(); ++s) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.2f",
                    s == 0 ? "" : ", ", r.stages[s].label.c_str(),
                    r.stages[s].seconds / double(r.ttis) * 1e6);
      j += buf;
    }
    j += "}";
    // Cross-TB decode-scheduler shape over the measured window.
    std::snprintf(buf, sizeof(buf),
                  ",\n     \"decode_sched\": {\"batch_fill\": %.4f, "
                  "\"blocks\": %llu, \"batch_groups\": %llu, "
                  "\"windowed_blocks\": %llu, \"smallk_rerouted\": %llu, "
                  "\"groups_per_k\": {",
                  r.sched.fill(),
                  static_cast<unsigned long long>(r.sched.blocks),
                  static_cast<unsigned long long>(r.sched.batch_groups),
                  static_cast<unsigned long long>(r.sched.windowed_blocks),
                  static_cast<unsigned long long>(r.sched.smallk_rerouted));
    j += buf;
    bool first_k = true;
    for (const auto& [k, groups] : r.sched.groups_per_k) {
      std::snprintf(buf, sizeof(buf), "%s\"%d\": %llu", first_k ? "" : ", ",
                    k, static_cast<unsigned long long>(groups));
      j += buf;
      first_k = false;
    }
    j += "}}";
    if (r.hw) {
      std::snprintf(buf, sizeof(buf), ",\n     \"pmu\": {\"available\": %s, "
                    "\"stages\": {",
                    r.pmu_available ? "true" : "false");
      j += buf;
      for (std::size_t s = 0; s < r.pmu_stages.size(); ++s) {
        const auto& [name, m] = r.pmu_stages[s];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"ipc\": %.3f, \"cycles\": %llu, "
                      "\"instructions\": %llu",
                      s == 0 ? "" : ", ", name.c_str(), m.ipc(),
                      static_cast<unsigned long long>(m.cycles),
                      static_cast<unsigned long long>(m.instructions));
        j += buf;
        if (m.backend_bound() >= 0) {
          std::snprintf(buf, sizeof(buf), ", \"backend_bound\": %.4f",
                        m.backend_bound());
          j += buf;
        }
        j += "}";
      }
      j += "}}";
    }
    j += "}";
    j += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  j += "  ]\n}";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const int ttis = int_flag(argc, argv, "--ttis", 300);
  const int flows = int_flag(argc, argv, "--flows", 4);
  const int payload = int_flag(argc, argv, "--payload", 1500);
  const std::string json_path = bench::json_out_path(argc, argv);
  const bool hw = bench::hw_flag(argc, argv);
  const bool batch = !has_flag(argc, argv, "--no-batch");

  std::vector<IsaLevel> isas{IsaLevel::kScalar};
  for (const IsaLevel isa :
       {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa <= best_isa()) isas.push_back(isa);
  }

  std::printf("bench_e2e: %d TTIs x %d flows, %dB payload, counting=%s, "
              "batch_decode=%s\n",
              ttis, flows, payload,
              alloc_stats::interposed() ? "on" : "OFF (sanitizer build?)",
              batch ? "on" : "off");
  if (hw) {
    std::printf("hardware counters: %s\n", obs::pmu_status_string());
  }
  std::printf("\n");
  std::printf("%-8s %-8s %10s %10s %10s %12s %8s\n", "isa", "workers",
              "p50_us", "p99_us", "mean_us", "allocs/tti", "crc_ok");

  std::vector<ConfigResult> rows;
  for (const IsaLevel isa : isas) {
    double serial_allocs = 0;  // exact; see header comment
    for (const int workers : {1, 4}) {
      auto r = run_config(isa, workers, ttis, flows, payload, hw, batch);
      if (workers == 1) {
        serial_allocs = r.allocs_per_tti;
      } else {
        r.allocs_per_tti = serial_allocs;
      }
      std::printf("%-8s %-8d %10.1f %10.1f %10.1f %12.3f %8.4f\n",
                  isa_name(isa), workers, r.p50_us, r.p99_us, r.mean_us,
                  r.allocs_per_tti, r.crc_ok_rate);
      if (r.sched.batch_groups > 0) {
        std::printf("    sched fill=%.0f%% groups=%llu windowed=%llu "
                    "rerouted=%llu\n",
                    100 * r.sched.fill(),
                    static_cast<unsigned long long>(r.sched.batch_groups),
                    static_cast<unsigned long long>(r.sched.windowed_blocks),
                    static_cast<unsigned long long>(r.sched.smallk_rerouted));
      }
      if (hw && !r.pmu_stages.empty()) {
        for (const auto& [name, m] : r.pmu_stages) {
          std::printf("    pmu %-18s ipc=%.2f", name.c_str(), m.ipc());
          if (m.backend_bound() >= 0) {
            std::printf(" backend=%.1f%%", 100 * m.backend_bound());
          }
          std::printf("\n");
        }
      }
      rows.push_back(r);
    }
  }

  bench::write_json(json_path, to_json(rows, ttis, flows, payload, batch));
  return 0;
}
