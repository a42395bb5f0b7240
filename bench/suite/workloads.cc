#include "bench/suite/workloads.h"

#include <cmath>
#include <limits>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "net/packet.h"

namespace vran::bench {

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      // 4 UEs x 1500 B: every TB is 3 code blocks that fill the lanes, so
      // the receive front (OFDM rx, demap, descramble, CRC) dominates.
      {"ul-bulk", Loop::kClosed, 1, 4, {1500}, {20}, 18.0, 25, 1, 1},
      // 16 UEs, small packets of many sizes, three MCS: single-block TBs
      // with many distinct K; per-packet costs dominate. 25 dB, so that no
      // packet fails: the windowed decode route loses MCS-20 blocks up to
      // about 24 dB, and MCS-4 blocks fail from 27 dB (README.md,
      // "Baseline losses").
      {"ul-small-mixed", Loop::kClosed, 1, 16,
       {40, 60, 80, 120, 200, 300, 400, 600}, {4, 13, 20}, 25.0, 100, 1, 1},
      // Mid-waterfall: most first transmissions fail, so HARQ soft
      // combining, full turbo runs and the worker pool dominate.
      {"ul-harq-edge", Loop::kClosed, 1, 4, {1500}, {13}, 6.5, 100, 4, 2},
      // The production runtime: 4 cells x 16 UEs, 4 packets every 1 ms,
      // under half utilisation with 2 workers. 30 dB: clear of the
      // windowed route's MCS-20 losses.
      {"multicell-openloop", Loop::kOpen, 4, 16, {100}, {20}, 30.0, 25, 1, 2,
       1000.0, 4},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

pipeline::PipelineConfig flow_config(const Workload& w, int cell, int ue,
                                     std::uint64_t noise_seed) {
  pipeline::PipelineConfig p;
  p.isa = best_isa();
  p.mcs = w.mcs[static_cast<std::size_t>(ue) % w.mcs.size()];
  p.snr_db = w.snr_db;
  p.max_prb = w.max_prb;
  p.harq_max_tx = w.harq_max_tx;
  const int idx = cell * w.ues + ue;
  p.rnti = static_cast<std::uint16_t>(0x1000 + idx);
  p.cell_id = cell + 1;
  p.teid = 0x100u + static_cast<std::uint32_t>(idx);
  p.noise_seed = noise_seed;
  return p;
}

pipeline::MultiCellConfig multicell_config(const Workload& w,
                                           std::uint64_t noise_seed) {
  pipeline::MultiCellConfig mc;
  mc.cells = w.cells;
  mc.flows_per_cell = w.ues;
  mc.workers = w.workers;
  mc.flow_template = flow_config(w, 0, 0, noise_seed);
  // The publisher samples every cell while the runtime runs; no socket
  // and no postmortem directory, so the run writes no files.
  mc.telemetry.enabled = true;
  // The ladder still degrades on misses, but never drops a TTI: on a
  // shared host a hypervisor stall of a few ms makes consecutive misses,
  // and dropping would turn them into random packet losses.
  mc.drop_after_misses = std::numeric_limits<int>::max();
  return mc;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

/// A UDP/IPv4 packet of `size` bytes from UE (cell, ue): header fields
/// from the flow identity, payload bytes from `rng`.
std::vector<std::uint8_t> make_packet(int cell, int ue, int size,
                                      std::uint32_t seq, Xoshiro256& rng) {
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(
      size - net::kIpv4HeaderBytes - net::kUdpHeaderBytes));
  for (std::size_t i = 0; i < payload.size(); i += 8) {
    const std::uint64_t r = rng.next();
    for (std::size_t b = 0; b < 8 && i + b < payload.size(); ++b) {
      payload[i + b] = static_cast<std::uint8_t>(r >> (8 * b));
    }
  }
  net::Ipv4Header ip;
  ip.src = 0x0A000000u | (std::uint32_t(cell) << 8) | std::uint32_t(ue + 1);
  ip.dst = 0x08080808u;
  ip.id = static_cast<std::uint16_t>(seq);
  net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(40000 + ue);
  udp.dst_port = 5201;
  return net::build_udp_packet(ip, udp, payload);
}

class Generator {
 public:
  Generator(const Workload& w, std::uint64_t seed)
      : w_(w), rng_(splitmix64(seed ^ 0x7662656e63680001ull)) {}

  Packet next(int cell, int ue) {
    const int size =
        w_.sizes[static_cast<std::size_t>(rng_.bounded(w_.sizes.size()))];
    Packet p{cell, ue, make_packet(cell, ue, size, seq_++, rng_)};
    const std::uint32_t flow = static_cast<std::uint32_t>(cell * w_.ues + ue);
    const std::uint8_t mcs = static_cast<std::uint8_t>(
        w_.mcs[static_cast<std::size_t>(ue) % w_.mcs.size()]);
    digest = fnv1a(digest, &flow, sizeof(flow));
    digest = fnv1a(digest, &mcs, sizeof(mcs));
    digest = fnv1a(digest, p.bytes.data(), p.bytes.size());
    return p;
  }
  std::uint64_t noise_seed() {
    const std::uint64_t s = rng_.next();
    digest = fnv1a(digest, &s, sizeof(s));
    return s;
  }

  std::uint64_t digest = kFnvBasis;

 private:
  const Workload& w_;
  Xoshiro256 rng_;
  std::uint32_t seq_ = 0;
};

}  // namespace

Inputs generate_inputs(const Workload& w, std::uint64_t seed, int ttis,
                       double warmup_s, double measure_s) {
  Generator gen(w, seed);
  Inputs in;
  const int flows = w.cells * w.ues;
  for (int f = 0; f < flows; ++f) in.noise_seeds.push_back(gen.noise_seed());
  if (w.loop == Loop::kClosed) {
    in.ttis.resize(static_cast<std::size_t>(ttis));
    for (auto& tti : in.ttis) {
      for (int ue = 0; ue < w.ues; ++ue) tti.push_back(gen.next(0, ue).bytes);
    }
  } else {
    for (int c = 0; c < w.cells; ++c) {
      for (int ue = 0; ue < w.ues; ++ue) in.prime.push_back(gen.next(c, ue));
    }
    const auto ticks = static_cast<std::uint64_t>(
        std::llround((warmup_s + measure_s) * w.ticks_per_s));
    const std::uint64_t n = ticks * static_cast<std::uint64_t>(
                                        w.packets_per_tick);
    const auto cells = static_cast<std::uint64_t>(w.cells);
    const auto ues = static_cast<std::uint64_t>(w.ues);
    in.schedule.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      in.schedule.push_back(gen.next(static_cast<int>(k % cells),
                                     static_cast<int>((k / cells) % ues)));
    }
  }
  in.digest = gen.digest;
  return in;
}

}  // namespace vran::bench
