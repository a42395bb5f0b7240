// Figure 6: top-down breakdown for the downlink modules (port model).
//
// --hw: run each module's real kernel and print measured IPC /
// backend-bound next to the model columns (see fig05 / hw_kernels.h).
//
// --json <path>: write the rows as "vran-fig06-v1" with the standard
// "meta" provenance block (bench_util.h meta_json).
#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "bench/hw_kernels.h"
#include "sim/kernels.h"
#include "sim/port_sim.h"

using namespace vran;
using namespace vran::sim;

int main(int argc, char** argv) {
  const bool hw = bench::hw_flag(argc, argv);
  const std::string json_path = bench::json_out_path(argc, argv);
  bench::print_header(
      "Fig. 6 — Downlink module top-down breakdown (port model)");

  const PortSimulator psim(paper_machine(wimpy_cache()));
  const int k = 6144;

  struct Row {
    const char* name;
    Trace trace;
    bench::hw::Workload workload;
  };
  const Row rows[] = {
      {"DCI", trace_dci(27), bench::hw::wl_dci()},
      {"Turbo encoding", trace_turbo_encode(k), bench::hw::wl_turbo_encode(k)},
      {"Rate matching", trace_rate_match(IsaLevel::kSse41, k, 20000),
       bench::hw::wl_rate_match(IsaLevel::kSse41, k, 20000)},
      {"Scrambling", trace_scramble(IsaLevel::kScalar, 20000),
       bench::hw::wl_scramble(20000)},
      {"OFDM (tx)", trace_ofdm(IsaLevel::kSse41, 512, 4, true),
       bench::hw::wl_ofdm_tx(IsaLevel::kSse41, 512, 4)},
      {"Turbo decoding (UE)",
       trace_turbo_decode(IsaLevel::kSse41, k, 4, arrange::Method::kExtract),
       bench::hw::wl_turbo_decode(IsaLevel::kSse41, k, 4,
                                  arrange::Method::kExtract)},
  };

  if (hw) {
    std::printf("hardware counters: %s\n\n", obs::pmu_status_string());
    std::printf("%-20s %6s %8s | %8s %8s\n", "module", "IPC", "backend",
                "hw IPC", "hw bknd");
  } else {
    std::printf("%-20s %6s %9s %6s %6s %8s\n", "module", "IPC", "retiring",
                "fe", "bs", "backend");
  }
  bench::print_rule();
  std::string jrows;
  char jbuf[256];
  for (const auto& r : rows) {
    const auto td = psim.run(r.trace);
    const auto m = hw && r.workload ? bench::hw::measure(r.workload)
                                    : obs::PmuReading{};
    std::snprintf(jbuf, sizeof(jbuf),
                  "    {\"module\": \"%s\", \"model\": {\"ipc\": %.3f, "
                  "\"retiring\": %.4f, \"frontend\": %.4f, "
                  "\"bad_speculation\": %.4f, \"backend\": %.4f}",
                  r.name, td.ipc, td.retiring, td.frontend,
                  td.bad_speculation, td.backend);
    jrows += jrows.empty() ? "" : ",\n";
    jrows += jbuf;
    if (m.valid) {
      std::snprintf(jbuf, sizeof(jbuf), ", \"hw\": {\"ipc\": %.3f", m.ipc());
      jrows += jbuf;
      if (m.backend_bound() >= 0) {
        std::snprintf(jbuf, sizeof(jbuf), ", \"backend_bound\": %.4f",
                      m.backend_bound());
        jrows += jbuf;
      }
      jrows += "}";
    }
    jrows += "}";
    if (!hw) {
      std::printf("%-20s %6.2f %8.1f%% %5.1f%% %5.1f%% %7.1f%%\n", r.name,
                  td.ipc, 100 * td.retiring, 100 * td.frontend,
                  100 * td.bad_speculation, 100 * td.backend);
      continue;
    }
    std::printf("%-20s %6.2f %7.1f%% |", r.name, td.ipc, 100 * td.backend);
    if (m.valid) {
      std::printf(" %8.2f", m.ipc());
      if (m.backend_bound() >= 0) {
        std::printf(" %7.1f%%\n", 100 * m.backend_bound());
      } else {
        std::printf(" %8s\n", "n/a");
      }
    } else {
      std::printf(" %8s %8s\n", "n/a", "n/a");
    }
  }
  bench::print_rule();
  std::printf("paper shape: mirrors Fig. 5 — backend bound dominates the\n"
              "stalls, control-plane modules retire near the ideal rate\n");
  // Rate matching by tier (rm_simd.h): bit collection by byte
  // transposes plus the run-by-run copy, at the ul-bulk block geometry.
  std::printf("\nRate matching, port-model cycles by tier (K=4160, E=7280):\n");
  std::printf("  %-8s %12s %8s %8s\n", "tier", "match_cyc", "IPC", "backend");
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto r = psim.run(trace_rate_match(isa, 4160, 7280));
    std::printf("  %-8s %12llu %8.2f %7.1f%%\n", isa_name(isa),
                static_cast<unsigned long long>(r.cycles), r.ipc,
                100 * r.backend);
  }
  bench::write_json(json_path,
                    std::string("{\n  \"schema\": \"vran-fig06-v1\",\n") +
                        "  \"meta\": " + bench::meta_json() + ",\n" +
                        "  \"hw\": " + (hw ? "true" : "false") + ",\n" +
                        "  \"rows\": [\n" + jrows + "\n  ]\n}");
  return 0;
}
