// End-to-end packet stream: a DPDK-style mempool + SPSC ring feeds UDP
// packets from a synthetic UE into the uplink pipeline; delivered GTP-U
// packets are decapsulated, verified, and per-stage CPU time is reported
// — a miniature of the paper's Figure-1 testbed.
//
// Usage: ./examples/packet_stream [packets] [packet_bytes] [apcm|extract]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "net/gtpu.h"
#include "net/mempool.h"
#include "net/pktgen.h"
#include "pipeline/pipeline.h"

int main(int argc, char** argv) {
  using namespace vran;

  const int packets = argc > 1 ? std::atoi(argv[1]) : 100;
  const int bytes = argc > 2 ? std::atoi(argv[2]) : 1500;
  const bool apcm = argc > 3 ? std::strcmp(argv[3], "extract") != 0 : true;

  pipeline::PipelineConfig cfg;
  cfg.isa = best_isa();
  cfg.arrange_method =
      apcm ? arrange::Method::kApcm : arrange::Method::kExtract;
  cfg.snr_db = 24.0;
  obs::MetricsRegistry reg;  // this run's stage histograms only
  cfg.metrics = &reg;
  pipeline::UplinkPipeline ul(cfg);

  // UE-side NIC emulation: pre-allocated buffers + a burst ring.
  net::PacketPool pool(2048, 64);
  net::SpscRing rx_ring(64);

  net::FlowConfig fc;
  fc.packet_bytes = bytes;
  net::PacketGenerator gen(fc);

  int delivered = 0, dropped = 0;
  std::int64_t last_seq = -1;
  double total_latency = 0;

  for (int i = 0; i < packets; ++i) {
    // "NIC receive": copy the generated frame into a pool buffer and
    // enqueue its handle.
    const auto frame = gen.next();
    auto buf = pool.alloc();
    if (!buf.has_value()) {
      ++dropped;
      continue;
    }
    auto span = pool.data(*buf);
    std::copy(frame.begin(), frame.end(), span.begin());
    buf->length = static_cast<std::uint32_t>(frame.size());
    rx_ring.push(*buf);

    // "vRAN worker": drain the ring through the PHY pipeline.
    while (auto work = rx_ring.pop()) {
      const auto pkt = pool.data(*work).first(work->length);
      const auto res = ul.send_packet(pkt);
      pool.free(*work);
      if (!res.delivered) {
        ++dropped;
        continue;
      }
      total_latency += res.latency_seconds;
      const auto gtpu = net::gtpu_decapsulate(res.egress);
      const auto seq =
          gtpu ? net::PacketGenerator::verify(gtpu->inner) : -1;
      if (seq < 0) {
        ++dropped;
        continue;
      }
      last_seq = seq;
      ++delivered;
    }
  }

  std::printf("arrangement: %s\n",
              arrange::method_name(cfg.arrange_method));
  std::printf("delivered %d / %d packets (last seq %lld), mean latency "
              "%.1f us\n",
              delivered, packets, static_cast<long long>(last_seq),
              delivered ? total_latency / delivered * 1e6 : 0.0);

  std::printf("\nper-stage CPU time:\n");
  const auto stages = pipeline::stage_entries(reg.snapshot());
  double total = 0;
  for (const auto& e : stages) total += e.seconds;
  for (const auto& e : stages) {
    std::printf("  %-20s %9.3f ms  %5.1f%%\n", e.label.c_str(),
                e.seconds * 1e3, 100 * e.seconds / total);
  }
  return delivered > 0 ? 0 : 1;
}
