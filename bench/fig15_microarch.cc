// Figure 15: top-down metrics and IPC of the data arrangement, original
// vs APCM, per register width (port model).
//
// Paper values: retiring 55.6/52/48 % -> 97/96/95 %, backend bound
// 44.4/48.2/52 % -> 3/4/5 %, IPC 1.2/1.1/1.05 -> 3.6/3.5/3.3.
//
// --hw: run the REAL deinterleave3_i16 kernel for every row this host's
// ISA reaches and print measured IPC / backend-bound / L1D accesses per
// cycle (perf_event_open counters) next to the model columns. Rows whose
// ISA exceeds the host, or hosts without perf access, print n/a.
//
// A second section applies the same model-vs-measured treatment to the
// batched-lane turbo decoder (one code block per 8-state lane group):
// the port model predicts how the full-width recursions' IPC scales as
// the lanes fill with whole trellises, --hw checks it on this CPU.
//
// --json <path>: write both sections as "vran-fig15-v1" with the
// standard "meta" provenance block (bench_util.h meta_json).
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
      "Fig. 15 — Arrangement top-down + IPC, original vs APCM (port model)");

  const PortSimulator psim(paper_machine(beefy_cache()));
  const std::size_t n = 1 << 15;

  if (hw) {
    std::printf("hardware counters: %s\n\n", obs::pmu_status_string());
    std::printf("%-10s %-9s %6s %8s | %8s %8s %8s\n", "isa", "method",
                "IPC", "backend", "hw IPC", "hw bknd", "L1D/cyc");
  } else {
    std::printf("%-10s %-9s %6s %9s %6s %6s %8s\n", "isa", "method", "IPC",
                "retiring", "fe", "bs", "backend");
  }
  bench::print_rule();
  std::string jrows;
  char jbuf[256];
  const auto json_row = [&](const char* kind, const char* name,
                            IsaLevel isa, const TopDown& td,
                            const obs::PmuReading& m) {
    std::snprintf(jbuf, sizeof(jbuf),
                  "    {\"kind\": \"%s\", \"name\": \"%s\", \"isa\": \"%s\", "
                  "\"model\": {\"ipc\": %.3f, \"retiring\": %.4f, "
                  "\"frontend\": %.4f, \"bad_speculation\": %.4f, "
                  "\"backend\": %.4f}",
                  kind, name, isa_name(isa), td.ipc, td.retiring, td.frontend,
                  td.bad_speculation, td.backend);
    jrows += jrows.empty() ? "" : ",\n";
    jrows += jbuf;
    if (m.valid) {
      std::snprintf(jbuf, sizeof(jbuf),
                    ", \"hw\": {\"ipc\": %.3f, \"l1d_per_cycle\": %.3f",
                    m.ipc(), m.l1d_accesses_per_cycle());
      jrows += jbuf;
      if (m.backend_bound() >= 0) {
        std::snprintf(jbuf, sizeof(jbuf), ", \"backend_bound\": %.4f",
                      m.backend_bound());
        jrows += jbuf;
      }
      jrows += "}";
    }
    jrows += "}";
  };
  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    for (auto method : {arrange::Method::kExtract, arrange::Method::kApcm}) {
      const auto order = method == arrange::Method::kApcm
                             ? arrange::Order::kBatched
                             : arrange::Order::kCanonical;
      const auto td = psim.run(trace_arrange(method, isa, order, n));
      if (!hw) {
        json_row("arrange", arrange::method_name(method), isa, td, {});
        std::printf("%-10s %-9s %6.2f %8.1f%% %5.1f%% %5.1f%% %7.1f%%\n",
                    isa_name(isa), arrange::method_name(method), td.ipc,
                    100 * td.retiring, 100 * td.frontend,
                    100 * td.bad_speculation, 100 * td.backend);
        continue;
      }
      obs::PmuReading m;
      if (isa <= best_isa()) {
        m = bench::hw::measure(bench::hw::wl_arrange(method, isa, order, n));
      }
      json_row("arrange", arrange::method_name(method), isa, td, m);
      std::printf("%-10s %-9s %6.2f %7.1f%% |", isa_name(isa),
                  arrange::method_name(method), td.ipc, 100 * td.backend);
      if (m.valid) {
        std::printf(" %8.2f", m.ipc());
        if (m.backend_bound() >= 0) {
          std::printf(" %7.1f%%", 100 * m.backend_bound());
        } else {
          std::printf(" %8s", "n/a");
        }
        std::printf(" %8.2f\n", m.l1d_accesses_per_cycle());
      } else {
        std::printf(" %8s %8s %8s\n", "n/a", "n/a", "n/a");
      }
    }
  }
  bench::print_rule();
  std::printf(
      "paper: retiring 55.6/52/48%% -> 97/96/95%%; backend 44.4/48.2/52%%\n"
      "-> 3/4/5%%; IPC 1.2/1.1/1.05 -> 3.6/3.5/3.3 (128/256/512 bit)\n");
  if (hw) {
    std::printf(
        "hw columns measure the real deinterleave3_i16 kernel on this CPU\n"
        "(backend-bound from topdown slots, else the stalled-cycles proxy,\n"
        "else n/a; rows above this host's ISA tier are n/a).\n");
  }

  // Batched-lane turbo decoding, same treatment: the recursions run the
  // full K trellis steps at every width (one code block per 8-state lane
  // group), so the model's question is how IPC and the stall budget move
  // as the lanes fill with independent whole trellises instead of
  // windows of one.
  const int k = 6144;
  std::printf(
      "\nBatched-lane turbo decode (one code block per lane group, K=%d,\n"
      "4 fixed iterations; per-block cost = batch cost / blocks)\n",
      k);
  if (hw) {
    std::printf("%-10s %-7s %6s %8s | %8s %8s\n", "isa", "blocks", "IPC",
                "backend", "hw IPC", "hw bknd");
  } else {
    std::printf("%-10s %-7s %6s %9s %6s %6s %8s\n", "isa", "blocks", "IPC",
                "retiring", "fe", "bs", "backend");
  }
  bench::print_rule();
  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const int nb = phy::TurboBatchDecoder::lane_capacity(isa);
    const auto td = psim.run(trace_turbo_decode_batch(isa, k, 4));
    if (!hw) {
      json_row("turbo_batch", "batch", isa, td, {});
      std::printf("%-10s %-7d %6.2f %8.1f%% %5.1f%% %5.1f%% %7.1f%%\n",
                  isa_name(isa), nb, td.ipc, 100 * td.retiring,
                  100 * td.frontend, 100 * td.bad_speculation,
                  100 * td.backend);
      continue;
    }
    obs::PmuReading m;
    if (isa <= best_isa()) {
      m = bench::hw::measure(bench::hw::wl_turbo_decode_batch(isa, k, 4));
    }
    json_row("turbo_batch", "batch", isa, td, m);
    std::printf("%-10s %-7d %6.2f %7.1f%% |", isa_name(isa), nb, td.ipc,
                100 * td.backend);
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

  bench::write_json(json_path,
                    std::string("{\n  \"schema\": \"vran-fig15-v1\",\n") +
                        "  \"meta\": " + bench::meta_json() + ",\n" +
                        "  \"hw\": " + (hw ? "true" : "false") + ",\n" +
                        "  \"rows\": [\n" + jrows + "\n  ]\n}");
  return 0;
}
