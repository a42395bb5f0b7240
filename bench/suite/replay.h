// Traced replay: the uplink chain re-driven call by call through the
// program's public functions, one span per call (README.md, "Traced
// run").
//
// The replay runs on one thread and calls the public functions in the
// order UplinkPipeline's staged TTI phases (pipeline.cc: phy_transmit,
// phy_decode_front, phy_decode_back, tti_finish) and BatchRunner's
// cross-TB round loop call them, building DecodeScheduler jobs the way
// phy_decode_front does. Spans stay in memory; self time per layer is a
// span's duration minus the time its child spans cover.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/suite/workloads.h"

namespace vran::bench {

/// Span names. kTti is the root of every TTI, kRound one HARQ round
/// under it; every other layer is a leaf around public calls.
enum Layer : int {
  kTti,
  kRound,
  kUeEncode,
  kUeTx,
  kChannel,
  kOfdmRx,
  kDemap,
  kDescramble,
  kDematch,
  kArrange,
  kTurbo,
  kDeseg,
  kCrc,
  kMacParse,
  kGtpu,
  kLayerCount
};
/// "tti", "harq_round", then the per-layer metric stems
/// ("testbed.ue_encode", "ofdm.rx", ...).
const char* layer_name(int layer);
/// True for the eNB receive chain (ofdm.rx through net.gtpu).
bool is_enb_layer(int layer);

struct Span {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the span vector; -1 = root
  std::int32_t tti = 0;
  std::int32_t flow = -1;    ///< -1 = not one flow's (scheduler, rounds)
  std::uint8_t layer = 0;
};

struct ReplayResult {
  int ttis = 0;                      ///< traced TTIs
  std::uint64_t wrong = 0;           ///< delivered with the wrong bytes
  std::uint64_t tbs = 0;             ///< transport blocks finished
  std::uint64_t tb_iterations = 0;   ///< per TB: max over its blocks
  std::uint64_t decode_allocs = 0;   ///< heap allocs, OFDM rx .. TB CRC
  /// Self time per layer summed over the traced TTIs, nanoseconds.
  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::vector<Span> spans;           ///< the first `keep_ttis` TTIs
};

/// Replay `w` on its generated inputs: warm-up TTIs first (not traced),
/// then traced TTIs until `seconds` pass or `max_ttis` are done (0 = no
/// cap). Closed loop: a TTI is one pool entry. Open loop: a TTI is one
/// packet of the schedule, as the runtime's cells mostly see at this
/// load.
ReplayResult replay(const Workload& w, const Inputs& in, double seconds,
                    int max_ttis, int keep_ttis);

/// Chrome trace_event JSON of the kept spans (ns-exact begin/end and the
/// parent index in each event's args).
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace vran::bench
