// vran_bench workloads: their shapes and the inputs generated from the
// benchmark seed (README.md, "Workloads").
//
// Every input a run feeds the program — IP packets, which UE sends them,
// each UE's MCS, each UE's channel-noise seed — is generated here from
// --seed before any timing starts. The program only ever sees the
// generated inputs, never the seed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/multicell.h"
#include "pipeline/pipeline.h"

namespace vran::bench {

enum class Loop { kClosed, kOpen };

struct Workload {
  const char* name;
  Loop loop;
  int cells;                 ///< 1 for the closed-loop workloads
  int ues;                   ///< UE flows per cell
  std::vector<int> sizes;    ///< IP packet sizes (bytes); drawn per packet
  std::vector<int> mcs;      ///< per-UE MCS, round-robin over the UEs
  double snr_db;
  int max_prb;
  int harq_max_tx;
  int workers;
  // Open loop only.
  double ticks_per_s = 0;    ///< offer instants per second
  int packets_per_tick = 0;  ///< packets offered at each instant
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
const Workload* find_workload(std::string_view name);

/// Flow `ue` of `cell`: the PipelineConfig the runner is built with. Every
/// flow runs at best_isa(); `noise_seed` is a generated input.
pipeline::PipelineConfig flow_config(const Workload& w, int cell, int ue,
                                     std::uint64_t noise_seed);
/// The open-loop runtime's configuration (flow_template from flow 0).
pipeline::MultiCellConfig multicell_config(const Workload& w,
                                           std::uint64_t noise_seed);

/// One generated packet: who sends it and its bytes.
struct Packet {
  int cell = 0;
  int ue = 0;
  std::vector<std::uint8_t> bytes;
};

struct Inputs {
  /// Per flow (cell * ues + ue): channel-noise seed. The open-loop
  /// runtime derives its per-flow seeds from flow 0's (MultiCellRunner::
  /// flow_config), so only noise_seeds[0] reaches it.
  std::vector<std::uint64_t> noise_seeds;
  /// Closed loop: tti[t][ue] is UE ue's packet in TTI t; a run cycles
  /// through the pool when it outlasts it.
  std::vector<std::vector<std::vector<std::uint8_t>>> ttis;
  /// Open loop: one priming packet per flow, then every packet of the
  /// schedule in offer order.
  std::vector<Packet> prime;
  std::vector<Packet> schedule;
  /// FNV-1a over every generated input: each packet's bytes with its flow
  /// and MCS, and each noise seed.
  std::uint64_t digest = 0;
};

/// Closed loop: `ttis` TTIs of packets. Open loop: warmup_s + measure_s
/// seconds of schedule.
Inputs generate_inputs(const Workload& w, std::uint64_t seed, int ttis,
                       double warmup_s, double measure_s);

/// FNV-1a, the digest and egress-hash primitive.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n);

}  // namespace vran::bench
