// Figure 3: per-module CPU-time share and IPC for the uplink.
//
// CPU time comes from the real pipeline (steady-state packet stream);
// IPC per module comes from the port model running each module's
// instrumented trace. Paper shape: turbo decoding dominates CPU time
// with IPC ~2.1; DCI / rate matching / scrambling sit near the ideal
// IPC of 4; OFDM (scalar) near 3.8.
#include <cstdio>

#include "bench/bench_util.h"
#include "net/pktgen.h"
#include "pipeline/pipeline.h"
#include "sim/kernels.h"
#include "sim/port_sim.h"

using namespace vran;

int main() {
  bench::print_header(
      "Fig. 3 — Uplink per-module CPU share (measured) and IPC (port model)");

  pipeline::PipelineConfig cfg;
  cfg.isa = IsaLevel::kSse41;
  cfg.arrange_method = arrange::Method::kExtract;  // original mechanism
  cfg.snr_db = 16.0;  // near the BLER cliff: realistic iteration counts
  obs::MetricsRegistry reg;  // this run's stage histograms only
  cfg.metrics = &reg;
  pipeline::UplinkPipeline ul(cfg);

  net::FlowConfig fc;
  fc.packet_bytes = 1500;
  net::PacketGenerator gen(fc);
  // Warm-up packets pay the one-time set-up (the shared QPP table, codec
  // construction) outside the measured stage times.
  for (int i = 0; i < 3; ++i) ul.send_packet(gen.next());
  reg.reset();
  for (int i = 0; i < 40; ++i) {
    const auto pkt = gen.next();
    ul.send_packet(pkt);
  }

  const auto stages = pipeline::stage_entries(reg.snapshot());
  double total = 0;
  for (const auto& e : stages) total += e.seconds;

  // Port-model IPC for the decode-side modules of the uplink.
  const sim::PortSimulator psim(sim::paper_machine(sim::beefy_cache()));
  const int k = 6144;
  const auto ipc_of = [&](const sim::Trace& t) { return psim.run(t).ipc; };
  struct ModuleIpc {
    const char* name;
    double ipc;
  };
  const ModuleIpc ipcs[] = {
      {"OFDM (rx)", ipc_of(sim::trace_ofdm(IsaLevel::kSse41, 512, 4))},
      {"Demodulation", ipc_of(sim::trace_demap(IsaLevel::kSse41, 7200))},
      {"Descrambling", ipc_of(sim::trace_scramble(IsaLevel::kSse41, 20000))},
      {"Rate dematch",
       ipc_of(sim::trace_rate_dematch(IsaLevel::kSse41, k, 20000))},
      {"Data arrangement",
       ipc_of(sim::trace_arrange(arrange::Method::kExtract, IsaLevel::kSse41,
                                 arrange::Order::kCanonical, k + 4))},
      {"Turbo decoding",
       ipc_of(sim::trace_turbo_decode(IsaLevel::kSse41, k, 4,
                                      arrange::Method::kExtract))},
      {"DCI", ipc_of(sim::trace_dci(27))},
  };

  std::printf("%-22s %10s %8s %8s\n", "module", "cpu_s", "share%", "IPC");
  bench::print_rule();
  for (const auto& e : stages) {
    double ipc = 0;
    for (const auto& m : ipcs) {
      if (e.label == m.name) ipc = m.ipc;
    }
    if (ipc > 0) {
      std::printf("%-22s %10.5f %7.1f%% %8.2f\n", e.label.c_str(), e.seconds,
                  100 * e.seconds / total, ipc);
    } else {
      std::printf("%-22s %10.5f %7.1f%%        -\n", e.label.c_str(),
                  e.seconds, 100 * e.seconds / total);
    }
  }
  bench::print_rule();
  // OFDM SIMD tiers: port-model IPC for the vectorized FFT at each
  // width next to the scalar baseline (PR 7 kernels).
  std::printf("\nOFDM (rx) port-model IPC by tier:\n");
  std::printf("  %-8s %8s\n", "tier", "IPC");
  std::printf("  %-8s %8.2f\n", "scalar",
              ipc_of(sim::trace_ofdm(IsaLevel::kScalar, 512, 4)));
  std::printf("  %-8s %8.2f\n", "sse128",
              ipc_of(sim::trace_ofdm(IsaLevel::kSse41, 512, 4)));
  std::printf("  %-8s %8.2f\n", "avx256",
              ipc_of(sim::trace_ofdm(IsaLevel::kAvx2, 512, 4)));
  std::printf("  %-8s %8.2f\n", "avx512",
              ipc_of(sim::trace_ofdm(IsaLevel::kAvx512, 512, 4)));
  // Receive-front SIMD tiers (demap_simd.h, descramble_simd.h): the
  // model's cycle count per tier predicts the speed-up of each rewrite.
  std::printf("\nReceive front port-model cycles by tier (64QAM demap of "
              "7200 symbols, descramble of 20000 LLRs):\n");
  std::printf("  %-8s %12s %14s\n", "tier", "demap_cyc", "descramble_cyc");
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    std::printf("  %-8s %12llu %14llu\n", isa_name(isa),
                static_cast<unsigned long long>(
                    psim.run(sim::trace_demap(isa, 7200)).cycles),
                static_cast<unsigned long long>(
                    psim.run(sim::trace_scramble(isa, 20000)).cycles));
  }
  // Rate dematching per tier (rm_simd.h): run-walk combining plus the
  // transpose triple extraction, at the ul-bulk block geometry.
  std::printf("\nRate dematch port-model cycles by tier (K=4160, E=7280):\n");
  std::printf("  %-8s %12s %8s\n", "tier", "dematch_cyc", "IPC");
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto r = psim.run(sim::trace_rate_dematch(isa, 4160, 7280));
    std::printf("  %-8s %12llu %8.2f\n", isa_name(isa),
                static_cast<unsigned long long>(r.cycles), r.ipc);
  }
  std::printf("paper shape: turbo decoding dominates CPU time (>50%% of the\n"
              "PHY), IPC ~2.1; DCI/rate-match/scrambling IPC near 4; OFDM ~3.8\n");
  return 0;
}
