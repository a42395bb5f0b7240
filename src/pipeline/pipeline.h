// End-to-end vRAN pipelines (the paper's Figure 1 path).
//
// Uplink: UE-side encode (MAC PDU -> TB CRC -> segmentation -> turbo ->
// rate matching -> scrambling -> modulation -> OFDM) -> AWGN channel ->
// eNB-side decode (OFDM -> soft demap -> descramble -> de-rate-match ->
// *data arrangement* -> turbo decode -> desegmentation -> MAC parse) ->
// GTP-U encapsulation toward the EPC. Downlink runs the same chain in
// the opposite direction plus a DCI grant per TTI.
//
// Every stage is listed once, in kStages, and timed into its
// "stage.<key>_ns" histogram so the benches can reproduce the paper's
// per-module CPU-share figures; the turbo decoder's data-arrangement
// mechanism is taken from the config — the APCM-vs-extract comparison of
// Figs. 13/14 is a one-field change.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arrange/arrange.h"
#include "common/cpu_features.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "mac/mac_pdu.h"
#include "mac/tbs_tables.h"
#include "phy/channel/channel.h"
#include "phy/dci/dci.h"
#include "phy/modulation/modulation.h"
#include "phy/ofdm/ofdm.h"
#include "phy/ratematch/rate_match.h"
#include "phy/scramble/scrambler.h"
#include "phy/segmentation/segmentation.h"
#include "phy/turbo/turbo_decoder.h"
#include "pipeline/decode_scheduler.h"
#include "pipeline/workspace.h"

namespace vran::pipeline {

struct PipelineConfig {
  /// Default sized so a 1500-byte packet fits one 25-PRB transport block.
  int mcs = 20;
  int max_prb = 25;  ///< 5 MHz carrier
  double snr_db = 18.0;
  IsaLevel isa = IsaLevel::kSse41;
  arrange::Method arrange_method = arrange::Method::kApcm;
  /// Inert: every code block decodes on the one batched route (see
  /// pipeline/decode_scheduler.h), whatever this says. Kept until the
  /// benchmark's frozen replay stops reading it.
  bool batch_decode = true;
  std::uint16_t rnti = 0x1234;
  int cell_id = 1;
  std::uint32_t teid = 0xAB;
  int max_turbo_iterations = 6;
  /// HARQ: maximum transmissions per transport block (1 = no
  /// retransmission). Retransmissions cycle redundancy versions
  /// 0 -> 2 -> 3 -> 1 and soft-combine in the circular buffer.
  int harq_max_tx = 1;
  bool with_channel = true;   ///< false = wire the samples straight through
  std::uint64_t noise_seed = 99;
  phy::OfdmConfig ofdm;
  /// Worker threads for the per-code-block decode chain (de-rate-match ->
  /// data arrangement -> turbo decode). 1 = the legacy single-threaded
  /// path, bit-exact with previous releases; N > 1 decodes up to N code
  /// blocks concurrently and produces bit-identical egress/crc_ok (per-
  /// block decoding is deterministic; only which worker records each
  /// block's stage times differs).
  int num_workers = 1;
  /// Bound for each codec LRU map in the pipeline's workspace (distinct
  /// K values of encoders and rate matchers, decoder specs per slot; see
  /// workspace.h). Traffic over more distinct sizes evicts and
  /// reconstructs instead of growing without bound.
  std::size_t codec_cache_capacity = 8;
  /// Metrics sink: every stage feeds its latency histogram
  /// ("stage.<key>_ns", see kStages), and the pipeline records
  /// per-packet counters/histograms ("pipeline.*").
  /// Defaults to the process-wide registry; point at a private registry
  /// to isolate one run's distributions, or nullptr to disable.
  obs::MetricsRegistry* metrics = &obs::MetricsRegistry::global();
  /// Span recorder for chrome://tracing export; nullptr = tracing off.
  obs::TraceRecorder* trace = nullptr;
  /// Hardware PMU attribution (see obs/pmu.h): bracket every stage with
  /// a counter-group scope folding "pmu.stage.<key>.*" counters into
  /// `metrics` (cycles, instructions, L1D accesses, topdown slots where
  /// the CPU exposes them), and have decode workers attribute their
  /// share as "threadpool.pmu.*.w<id>". Availability is exported as the
  /// "pmu.available"/"pmu.topdown" gauges; on hosts where
  /// perf_event_open is refused (or under VRAN_PMU=off) everything
  /// degrades to a deterministic no-op and the counters stay absent.
  /// Off by default: the stage scopes then carry zero PMU overhead.
  bool pmu = false;
  /// Fault injector (see fault/fault.h); nullptr = no faults. Armed
  /// points hit the receive chain (LLR saturate/sign-flip bursts ahead
  /// of the data arrangement, forced turbo early-stop miss), the egress
  /// GTP-U frame, and the decode worker pool. Draws are keyed by
  /// (rnti, tti, rv, block), so fault sequences — and therefore egress —
  /// are identical across reruns and worker counts.
  fault::FaultInjector* fault = nullptr;
};

/// Every timed pipeline stage, transmit-to-receive order.
enum class Stage : std::uint8_t {
  kMac,
  kCrcSegmentation,
  kTurboEncode,
  kRateMatch,
  kScramble,
  kModulation,
  kOfdmTx,
  kChannel,
  kOfdmRx,
  kDemodulation,
  kDescramble,
  kRateDematch,
  kArrange,      ///< the paper's data-arrangement process
  kTurboDecode,  ///< MAP iterations (excl. arrangement)
  kDesegmentation,
  kGtpu,
  kDci,
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kDci) + 1;

struct StageInfo {
  /// Metric and trace name: histogram "stage.<key>_ns", PMU counters
  /// "pmu.stage.<key>.*", trace span "<key>".
  const char* key;
  /// Display label (figure tables, bench JSON "stages_us_per_tti").
  const char* label;
};

/// The one stage table, indexed by Stage.
inline constexpr std::array<StageInfo, kStageCount> kStages = {{
    {"mac", "MAC"},
    {"crc_segmentation", "CRC+segmentation"},
    {"turbo_encode", "Turbo encoding"},
    {"rate_match", "Rate matching"},
    {"scramble", "Scrambling"},
    {"modulation", "Modulation"},
    {"ofdm_tx", "OFDM (tx)"},
    {"channel", "Channel"},
    {"ofdm_rx", "OFDM (rx)"},
    {"demodulation", "Demodulation"},
    {"descramble", "Descrambling"},
    {"rate_dematch", "Rate dematch"},
    {"arrange", "Data arrangement"},
    {"turbo_decode", "Turbo decoding"},
    {"desegmentation", "Desegmentation"},
    {"gtpu", "GTP-U"},
    {"dci", "DCI"},
}};

constexpr const StageInfo& stage_info(Stage s) {
  return kStages[static_cast<std::size_t>(s)];
}
/// "stage.<key>_ns".
std::string stage_histogram_name(Stage s);
/// "pmu.stage.<key>." — the PmuStageCounters::resolve prefix.
std::string stage_pmu_prefix(Stage s);

struct StageEntry {
  std::string label;
  double seconds;
};
/// Recorded stage time in `snap` ("stage.<key>_ns" sums): the non-empty
/// stages, table order, under their display labels.
std::vector<StageEntry> stage_entries(const obs::Snapshot& snap);

namespace detail {
/// Resolved metric handles (per-stage histograms, packet counters) —
/// internal to pipeline.cc; owned per pipeline so name lookups happen
/// once at construction.
struct PipelineObs;
/// In-flight staged-TTI state (see UplinkPipeline::tti_begin) —
/// internal to pipeline.cc.
struct UplinkTti;
}  // namespace detail

struct PacketResult {
  bool delivered = false;
  bool crc_ok = false;
  int transmissions = 0;  ///< HARQ attempts used
  int turbo_iterations = 0;
  double latency_seconds = 0;      ///< whole-pipeline processing time
  double channel_seconds = 0;      ///< synthetic-channel share (testbed
                                   ///< artifact, not vRAN processing)
  std::size_t tb_bytes = 0;
  std::size_t code_blocks = 0;
  /// Heap allocations observed across the decode chain (OFDM rx through
  /// desegmentation), summed over HARQ transmissions. 0 in the steady
  /// state once the workspace arena and codec caches are warm. Only
  /// meaningful when the counting allocator is linked (see
  /// common/alloc_stats.h); otherwise stays 0.
  std::uint64_t decode_allocs = 0;
  std::vector<std::uint8_t> egress;  ///< GTP-U packet handed to the EPC
};

class UplinkPipeline {
 public:
  explicit UplinkPipeline(PipelineConfig cfg);
  ~UplinkPipeline();

  const PipelineConfig& config() const { return cfg_; }
  /// Arena + codec caches backing the decode hot path (inspectable for
  /// tests/benches: arena high-water, cache sizes, evictions).
  const PipelineWorkspace& workspace() const { return ws_; }

  /// Carry one IP packet UE -> eNB -> EPC. Transport-block geometry is
  /// derived from the packet size and the configured MCS. Exactly the
  /// staged-TTI sequence below, driven with the pipeline's own decode
  /// scheduler (per-TB grouping).
  PacketResult send_packet(std::span<const std::uint8_t> ip_packet);

  /// --- Staged TTI API -------------------------------------------------
  /// Splits one packet's HARQ loop into phases so a caller (BatchRunner)
  /// can interleave MANY flows' phases around one shared DecodeScheduler
  /// and batch same-K code blocks across transport blocks/UEs:
  ///
  ///   tti_begin(pkt);                       // MAC + segment + encode
  ///   while (!tti_done()) {
  ///     tti_transmit();                     // tx chain + channel +
  ///                                         //   receive front (OFDM rx
  ///                                         //   .. arrangement)
  ///     sched.submit(pending_jobs());       // <- cross-flow gathering
  ///     sched.run(...);                     // (caller-owned)
  ///     tti_collect();                      // desegment + TB CRC,
  ///                                         //   advance HARQ state
  ///   }
  ///   PacketResult r = tti_finish();        // MAC parse + GTP-U
  ///
  /// One packet may be staged at a time per pipeline. latency_seconds
  /// accumulates the flow's own phase wall times (the shared decode
  /// window is attributed by the caller via tti_add_latency).
  void tti_begin(std::span<const std::uint8_t> ip_packet);
  bool tti_done() const;
  void tti_transmit();
  /// Decode jobs produced by the last tti_transmit(); spans stay valid
  /// until this pipeline's next tti_begin().
  std::span<const DecodeJob> pending_jobs() const { return jobs_; }
  void tti_collect();
  PacketResult tti_finish();
  /// Fold a share of caller-side work (the shared scheduler's wall time
  /// / heap allocations) into the staged packet's result.
  void tti_add_latency(double seconds);
  void tti_add_decode_allocs(std::uint64_t allocs);

  /// Degrade knob for deadline scheduling (see pipeline/cell_shard.h):
  /// override the configured HARQ transmission budget and turbo
  /// iteration cap. Values clamp to >= 1; takes effect at the next
  /// tti_begin(). Throws std::logic_error while a packet is staged —
  /// changing quality mid-HARQ-loop would make tti_done() inconsistent.
  void set_quality(int harq_max_tx, int max_turbo_iterations);

 private:
  PipelineConfig cfg_;
  phy::OfdmModulator ofdm_;
  phy::AwgnChannel channel_;
  std::unique_ptr<ThreadPool> pool_;  ///< nullptr when num_workers <= 1
  std::unique_ptr<detail::PipelineObs> obs_;
  PipelineWorkspace ws_;
  std::unique_ptr<DecodeScheduler> sched_;  ///< per-TB mode (send_packet)
  std::vector<DecodeJob> jobs_;  ///< decode-front output, reused per TTI
  std::unique_ptr<detail::UplinkTti> state_;
  std::uint32_t tti_ = 0;
};

/// Downlink: eNB encodes (with a DCI grant), UE decodes.
class DownlinkPipeline {
 public:
  explicit DownlinkPipeline(PipelineConfig cfg);
  ~DownlinkPipeline();

  const PipelineConfig& config() const { return cfg_; }
  const PipelineWorkspace& workspace() const { return ws_; }

  PacketResult send_packet(std::span<const std::uint8_t> ip_packet);

 private:
  PipelineConfig cfg_;
  phy::OfdmModulator ofdm_;
  phy::AwgnChannel channel_;
  std::unique_ptr<ThreadPool> pool_;  ///< nullptr when num_workers <= 1
  std::unique_ptr<detail::PipelineObs> obs_;
  PipelineWorkspace ws_;
  std::unique_ptr<DecodeScheduler> sched_;
  std::vector<DecodeJob> jobs_;  ///< decode-front output, reused per TTI
  std::vector<phy::Cf> tx_time_;  ///< transmit samples, reused per TTI
  std::uint32_t tti_ = 0;
};

/// Time-domain SNR that yields `snr_db` per resource element after the
/// receive FFT (forward FFT gain = nfft with this library's conventions).
double time_domain_snr_db(double snr_db, int nfft);

}  // namespace vran::pipeline
