// Figure 4: per-module CPU-time share and IPC for the downlink.
#include <cstdio>

#include "bench/bench_util.h"
#include "net/pktgen.h"
#include "pipeline/pipeline.h"
#include "sim/kernels.h"
#include "sim/port_sim.h"

using namespace vran;

int main() {
  bench::print_header(
      "Fig. 4 — Downlink per-module CPU share (measured) and IPC (port model)");

  pipeline::PipelineConfig cfg;
  cfg.isa = IsaLevel::kSse41;
  cfg.arrange_method = arrange::Method::kExtract;
  cfg.snr_db = 16.0;  // near the BLER cliff: realistic iteration counts
  obs::MetricsRegistry reg;  // this run's stage histograms only
  cfg.metrics = &reg;
  pipeline::DownlinkPipeline dl(cfg);

  net::FlowConfig fc;
  fc.packet_bytes = 1500;
  net::PacketGenerator gen(fc);
  // Warm-up packets pay the one-time set-up (the shared QPP table, codec
  // construction) outside the measured stage times.
  for (int i = 0; i < 3; ++i) dl.send_packet(gen.next());
  reg.reset();
  for (int i = 0; i < 40; ++i) {
    const auto pkt = gen.next();
    dl.send_packet(pkt);
  }

  const auto stages = pipeline::stage_entries(reg.snapshot());
  double total = 0;
  for (const auto& e : stages) total += e.seconds;

  const sim::PortSimulator psim(sim::paper_machine(sim::beefy_cache()));
  const auto ipc_of = [&](const sim::Trace& t) { return psim.run(t).ipc; };
  struct ModuleIpc {
    const char* name;
    double ipc;
  };
  const ModuleIpc ipcs[] = {
      {"OFDM (tx)", ipc_of(sim::trace_ofdm(IsaLevel::kSse41, 512, 4, true))},
      {"Scrambling", ipc_of(sim::trace_scramble(IsaLevel::kScalar, 20000))},
      {"Rate matching",
       ipc_of(sim::trace_rate_match(IsaLevel::kSse41, 6144, 20000))},
      {"Turbo encoding", ipc_of(sim::trace_turbo_encode(6144))},
      {"Turbo decoding",
       ipc_of(sim::trace_turbo_decode(IsaLevel::kSse41, 6144, 4,
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
  std::printf("\nOFDM (tx) port-model IPC by tier:\n");
  std::printf("  %-8s %8s\n", "tier", "IPC");
  std::printf("  %-8s %8.2f\n", "scalar",
              ipc_of(sim::trace_ofdm(IsaLevel::kScalar, 512, 4)));
  std::printf("  %-8s %8.2f\n", "sse128",
              ipc_of(sim::trace_ofdm(IsaLevel::kSse41, 512, 4, true)));
  std::printf("  %-8s %8.2f\n", "avx256",
              ipc_of(sim::trace_ofdm(IsaLevel::kAvx2, 512, 4, true)));
  std::printf("  %-8s %8.2f\n", "avx512",
              ipc_of(sim::trace_ofdm(IsaLevel::kAvx512, 512, 4, true)));
  // Rate matching per tier (rm_simd.h): bit collection by byte
  // transposes plus the run-by-run copy, at the ul-bulk block geometry.
  std::printf("\nRate matching port-model cycles by tier (K=4160, E=7280):\n");
  std::printf("  %-8s %12s %8s\n", "tier", "match_cyc", "IPC");
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto r = psim.run(sim::trace_rate_match(isa, 4160, 7280));
    std::printf("  %-8s %12llu %8.2f\n", isa_name(isa),
                static_cast<unsigned long long>(r.cycles), r.ipc);
  }
  std::printf("paper shape: same module mix as uplink; UE-side turbo decode\n"
              "dominates, control modules (DCI/scrambling) near-ideal IPC\n");
  return 0;
}
