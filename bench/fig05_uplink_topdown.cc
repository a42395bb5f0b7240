// Figure 5: top-down micro-architecture breakdown (retiring / frontend /
// bad speculation / backend) for the uplink modules, from the port model.
// Paper shape: frontend and bad-speculation negligible everywhere; the
// stall budget concentrates in backend bound; turbo decoding worst
// (>50 %).
//
// --hw: additionally run each module's REAL kernel (bench/hw_kernels.h,
// same parameters the traces model) and print measured IPC and
// backend-bound from hardware counters next to the model columns; n/a
// when perf access is unavailable.
//
// --json <path>: write the rows as "vran-fig05-v1" with the standard
// "meta" provenance block (bench_util.h meta_json), so bench_compare
// can gate any pair of runs.
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
  bench::print_header("Fig. 5 — Uplink module top-down breakdown (port model)");

  const PortSimulator psim(paper_machine(wimpy_cache()));
  const int k = 6144;

  struct Row {
    const char* name;
    Trace trace;
    bench::hw::Workload workload;  // null = no hardware counterpart
  };
  const Row rows[] = {
      {"OFDM (rx)", trace_ofdm(IsaLevel::kSse41, 512, 4),
       bench::hw::wl_ofdm_rx(IsaLevel::kSse41, 512, 4)},
      {"Demodulation", trace_demap(IsaLevel::kSse41, 7200),
       bench::hw::wl_demap(IsaLevel::kSse41, 7200)},
      {"Descrambling", trace_scramble(IsaLevel::kSse41, 20000),
       bench::hw::wl_descramble(IsaLevel::kSse41, 20000)},
      {"Rate dematch", trace_rate_dematch(IsaLevel::kSse41, k, 20000),
       bench::hw::wl_rate_dematch(IsaLevel::kSse41, k, 20000)},
      {"Data arrangement",
       trace_arrange(arrange::Method::kExtract, IsaLevel::kSse41,
                     arrange::Order::kCanonical, k + 4),
       bench::hw::wl_arrange(arrange::Method::kExtract, IsaLevel::kSse41,
                             arrange::Order::kCanonical,
                             static_cast<std::size_t>(k) + 4)},
      {"Turbo decoding",
       trace_turbo_decode(IsaLevel::kSse41, k, 4, arrange::Method::kExtract),
       bench::hw::wl_turbo_decode(IsaLevel::kSse41, k, 4,
                                  arrange::Method::kExtract)},
      {"DCI", trace_dci(27), bench::hw::wl_dci()},
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
  std::printf("paper shape: fe/bs negligible for all modules; backend is the\n"
              "dominant stall; turbo decoding backend > 50%%\n");
  // Receive-front kernels by tier: the model's cycle prediction for the
  // scalar and SIMD demap / descramble (demap_simd.h), so the gain is
  // visible here before a wall-clock run confirms it.
  std::printf("\nReceive front, port-model cycles by tier "
              "(64QAM demap of 7200 symbols, descramble of 20000 LLRs):\n");
  std::printf("  %-8s %12s %8s %14s %8s\n", "tier", "demap_cyc", "IPC",
              "descramble_cyc", "IPC");
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto dm = psim.run(trace_demap(isa, 7200));
    const auto ds = psim.run(trace_scramble(isa, 20000));
    std::printf("  %-8s %12llu %8.2f %14llu %8.2f\n", isa_name(isa),
                static_cast<unsigned long long>(dm.cycles), dm.ipc,
                static_cast<unsigned long long>(ds.cycles), ds.ipc);
  }
  // Rate dematching by tier (rm_simd.h): run-walk combining plus the
  // transpose triple extraction, at the ul-bulk block geometry.
  std::printf("\nRate dematch, port-model cycles by tier (K=4160, E=7280):\n");
  std::printf("  %-8s %12s %8s %8s\n", "tier", "dematch_cyc", "IPC",
              "backend");
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto r = psim.run(trace_rate_dematch(isa, 4160, 7280));
    std::printf("  %-8s %12llu %8.2f %7.1f%%\n", isa_name(isa),
                static_cast<unsigned long long>(r.cycles), r.ipc,
                100 * r.backend);
  }
  bench::write_json(json_path,
                    std::string("{\n  \"schema\": \"vran-fig05-v1\",\n") +
                        "  \"meta\": " + bench::meta_json() + ",\n" +
                        "  \"hw\": " + (hw ? "true" : "false") + ",\n" +
                        "  \"rows\": [\n" + jrows + "\n  ]\n}");
  return 0;
}
