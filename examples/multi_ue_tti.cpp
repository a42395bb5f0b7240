// Multi-UE TTI simulation: a round-robin MAC scheduler grants PRBs to
// several backlogged UEs each TTI; every grant is announced via a DCI
// message and carried through the downlink PHY. Shows the control plane
// (scheduler + DCI) and data plane working together.
//
// The granted UEs' transport blocks are independent, so each TTI's
// grants run concurrently through a BatchRunner worker pool; pass a
// worker count to watch the TTI wall time drop on a multi-core host
// (results are bit-identical at any worker count).
//
// Usage: ./examples/multi_ue_tti [ttis] [ues] [workers]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "common/threadpool.h"
#include "mac/scheduler.h"
#include "net/pktgen.h"
#include "pipeline/batch_runner.h"
#include "pipeline/pipeline.h"

int main(int argc, char** argv) {
  using namespace vran;

  const int ttis = argc > 1 ? std::atoi(argv[1]) : 20;
  const int n_ues = argc > 2 ? std::atoi(argv[2]) : 3;
  const int workers =
      argc > 3 ? std::atoi(argv[3]) : ThreadPool::hardware_threads();

  obs::MetricsRegistry reg;  // every flow's stage histograms
  mac::RoundRobinScheduler sched(25);
  std::map<std::uint16_t, std::uint32_t> backlog;
  // Flow f serves RNTI 0x100 + f (each UE has its own RNTI/scrambling).
  std::vector<pipeline::PipelineConfig> flows;
  std::map<std::uint16_t, std::size_t> flow_of;
  std::vector<net::PacketGenerator> gens;
  for (int u = 0; u < n_ues; ++u) {
    const std::uint16_t rnti = static_cast<std::uint16_t>(0x100 + u);
    sched.add_ue({rnti, 14 + 2 * u, 0});
    backlog[rnti] = 4000 + 2000u * static_cast<std::uint32_t>(u);

    pipeline::PipelineConfig cfg;
    cfg.rnti = rnti;
    cfg.mcs = 14 + 2 * u;
    cfg.snr_db = 24.0;
    cfg.isa = best_isa();
    cfg.metrics = &reg;
    flow_of[rnti] = flows.size();
    flows.push_back(cfg);

    net::FlowConfig fc;
    fc.packet_bytes = 600;
    fc.seed = rnti;
    gens.emplace_back(fc);
  }
  pipeline::BatchRunner runner(pipeline::BatchRunner::Direction::kDownlink,
                               flows, workers);
  std::printf("%d UEs, %d worker(s) (%d hardware thread(s))\n\n", n_ues,
              runner.num_workers(), ThreadPool::hardware_threads());

  std::printf("%-5s %-8s %-10s %-8s %-10s %-9s\n", "tti", "rnti", "prbs",
              "tbs", "delivered", "backlog");
  int total_grants = 0, total_delivered = 0;
  Stopwatch total_sw;
  for (int tti = 0; tti < ttis; ++tti) {
    for (auto& [rnti, b] : backlog) sched.report_backlog(rnti, b);
    const auto grants = sched.schedule_tti(tti);

    // One packet per granted UE; ungranted flows idle this TTI.
    std::vector<std::vector<std::uint8_t>> packets(flows.size());
    for (const auto& g : grants) {
      const std::size_t f = flow_of.at(g.rnti);
      packets[f] = gens[f].next();
    }
    const auto results = runner.run_tti(packets);  // concurrent grants

    for (const auto& g : grants) {
      ++total_grants;
      const auto& res = results[flow_of.at(g.rnti)];
      const auto served = static_cast<std::uint32_t>(g.tbs_bits / 8);
      auto& b = backlog.at(g.rnti);
      b -= std::min(b, served);
      total_delivered += res.delivered ? 1 : 0;
      std::printf("%-5d 0x%04x   %2d@%-6d %-8d %-10s %-9u\n", tti, g.rnti,
                  g.dci.rb_len, g.dci.rb_start, g.tbs_bits,
                  res.delivered ? "yes" : "NO", b);
    }
    // Trickle of new data keeps the cell busy.
    for (auto& [rnti, b] : backlog) b += 700;
  }
  const double elapsed = total_sw.seconds();

  std::printf("\n%d grants issued, %d packets delivered\n", total_grants,
              total_delivered);
  std::printf("%d TTIs in %.3f s (%.2f ms/TTI) with %d worker(s)\n", ttis,
              elapsed, 1e3 * elapsed / ttis, runner.num_workers());

  // Per-stage CPU shares summed over every flow (the histogram shards
  // fold on snapshot, after the workers joined).
  const auto stages = pipeline::stage_entries(reg.snapshot());
  double total = 0;
  for (const auto& e : stages) total += e.seconds;
  if (total > 0) {
    std::printf("\naggregate CPU by stage:\n");
    for (const auto& e : stages) {
      std::printf("  %-18s %6.1f%%\n", e.label.c_str(),
                  100.0 * e.seconds / total);
    }
  }
  return total_delivered > 0 ? 0 : 1;
}
