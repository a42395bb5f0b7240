#include "pipeline/pipeline.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "common/alloc_stats.h"
#include "common/bitio.h"
#include "net/gtpu.h"
#include "phy/crc/crc.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::pipeline {

using phy::CrcType;
using phy::Modulation;

double time_domain_snr_db(double snr_db, int nfft) {
  return snr_db + 10.0 * std::log10(double(nfft));
}

std::string stage_histogram_name(Stage s) {
  return std::string("stage.") + stage_info(s).key + "_ns";
}

std::string stage_pmu_prefix(Stage s) {
  return std::string("pmu.stage.") + stage_info(s).key + ".";
}

std::vector<StageEntry> stage_entries(const obs::Snapshot& snap) {
  std::vector<StageEntry> out;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto s = static_cast<Stage>(i);
    const obs::HistogramStats* h = snap.histogram(stage_histogram_name(s));
    if (h != nullptr && h->count > 0) {
      out.push_back({stage_info(s).label, double(h->sum) * 1e-9});
    }
  }
  return out;
}

namespace detail {

/// One stage's resolved sinks: the latency histogram and — when the
/// config asked for hardware attribution AND the PMU is usable — the
/// "pmu.stage.<key>.*" counter handles. `pmu` stays all-null otherwise,
/// which makes every PmuScope built from it a no-op.
struct StageObs {
  obs::Histogram* ns = nullptr;
  obs::PmuStageCounters pmu;
};

/// Metric handles resolved once per pipeline. All pointers null when the
/// config disabled metrics, making every record site a cheap branch.
struct PipelineObs {
  std::array<StageObs, kStageCount> stage;  ///< indexed by Stage

  // Packet-level metrics ("pipeline.*").
  obs::Histogram* latency_ns = nullptr;  ///< whole send_packet
  obs::Histogram* proc_ns = nullptr;     ///< latency minus synthetic channel
  obs::Counter* packets = nullptr;
  obs::Counter* delivered = nullptr;
  obs::Counter* crc_fail = nullptr;
  obs::Counter* harq_retx = nullptr;

  PipelineObs(obs::MetricsRegistry* m, bool pmu) {
    if (m == nullptr) return;
    // Availability gauges are exported whenever attribution was asked
    // for — on the fallback path they are exactly how a metrics dump
    // says its pmu.* counters would have been zeros (and are absent).
    if (pmu) obs::pmu_export_availability(*m);
    const bool hw = pmu && obs::pmu_available();
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const auto s = static_cast<Stage>(i);
      stage[i].ns = &m->histogram(stage_histogram_name(s));
      if (hw) {
        stage[i].pmu = obs::PmuStageCounters::resolve(*m, stage_pmu_prefix(s));
      }
    }
    latency_ns = &m->histogram("pipeline.latency_ns");
    proc_ns = &m->histogram("pipeline.proc_ns");
    packets = &m->counter("pipeline.packets");
    delivered = &m->counter("pipeline.delivered");
    crc_fail = &m->counter("pipeline.crc_fail");
    harq_retx = &m->counter("pipeline.harq_retx");
  }

  const StageObs& operator[](Stage s) const {
    return stage[static_cast<std::size_t>(s)];
  }
};

}  // namespace detail

namespace {

std::uint64_t to_ns(double seconds) {
  return seconds <= 0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
}

/// Everything one packet's stages need to report: the resolved stage
/// sinks and the optional span recorder. Passed by reference down the
/// stage helpers.
struct PacketObs {
  const detail::PipelineObs& h;
  obs::TraceRecorder* trace = nullptr;
  std::uint32_t tti = 0;
};

/// RAII stage scope — the only way a stage is timed, on the driving
/// thread and on pool workers alike. One Stopwatch read feeds the
/// stage's "stage.<key>_ns" histogram and, when tracing, a begin/end
/// span named <key> stamped with TTI / code-block / worker id. With
/// hardware attribution on, the embedded PmuScope folds the stage's
/// cycle/instruction/L1D deltas into its "pmu.stage.<key>.*" counters
/// over exactly the stopwatch window (a no-op object otherwise).
/// Histogram shards fold on snapshot, so workers record directly.
class StageScope {
 public:
  StageScope(const PacketObs& po, Stage s, std::int32_t block = -1)
      : h_(po.h[s].ns), trace_(po.trace), name_(stage_info(s).key),
        tti_(po.tti), block_(block), pmu_(po.h[s].pmu.ptr()) {
    if (trace_ != nullptr) trace_begin_ = trace_->now_ns();
  }
  ~StageScope() {
    if (h_ != nullptr) h_->record(to_ns(sw_.seconds()));
    if (trace_ != nullptr) {
      obs::TraceEvent ev;
      ev.name = name_;
      ev.begin_ns = trace_begin_;
      ev.dur_ns = trace_->now_ns() - trace_begin_;
      ev.tti = tti_;
      ev.block = block_;
      ev.tid = ThreadPool::current_worker_id();
      trace_->record(ev);
    }
  }
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Stopwatch sw_;
  obs::Histogram* h_;
  obs::TraceRecorder* trace_;
  const char* name_;
  std::uint32_t tti_;
  std::int32_t block_;
  std::uint64_t trace_begin_ = 0;
  obs::PmuScope pmu_;  ///< last member: opens after (and closes before)
                       ///< the stopwatch, nested inside its window
};

/// Stable identity for fault draws: one packet transmission. Folding the
/// RNTI in decorrelates flows that share an injector (BatchRunner);
/// folding the redundancy version in distinguishes HARQ retransmissions
/// of the same TTI. Bit 63 stays clear (reserved for unkeyed draws).
std::uint64_t fault_key(const PipelineConfig& cfg, std::uint32_t tti,
                        int rv) {
  return (std::uint64_t(cfg.rnti) << 40) ^ (std::uint64_t(tti) << 8) ^
         std::uint64_t(rv & 0xFF);
}

/// LLR saturation / sign-flip bursts, applied ahead of the data
/// arrangement. Burst geometry comes from keyed draws, so the corrupted
/// positions are identical across reruns and ISA tiers.
void apply_llr_faults(const PipelineConfig& cfg, std::uint32_t tti, int rv,
                      std::span<std::int16_t> llr) {
  if (cfg.fault == nullptr || llr.empty()) return;
  using fault::FaultPoint;
  const std::uint64_t key = fault_key(cfg, tti, rv);
  const auto burst = [&](FaultPoint p, auto&& mutate) {
    if (!cfg.fault->fire(p, key)) return;
    const std::size_t max_len =
        std::max<std::size_t>(16, llr.size() / 8);
    const std::size_t len = 1 + cfg.fault->draw(p, key, 1) % max_len;
    const std::size_t start = cfg.fault->draw(p, key, 2) % llr.size();
    for (std::size_t j = 0; j < len && start + j < llr.size(); ++j) {
      mutate(llr[start + j]);
    }
  };
  // Saturation: an AGC/quantizer overdrive — full-scale confidence in
  // whatever sign the sample already had (amplifies channel errors).
  burst(FaultPoint::kLlrSaturate, [](std::int16_t& v) {
    v = v < 0 ? std::int16_t{-32767} : std::int16_t{32767};
  });
  // Sign flip: an interference burst — the decoder sees confidently
  // wrong soft bits, fails CRC, and HARQ soft-combining recovers.
  burst(FaultPoint::kLlrSignFlip, [](std::int16_t& v) {
    v = static_cast<std::int16_t>(-v);
  });
}

Modulation mod_of(int mcs) {
  switch (mac::mcs_entry(mcs).modulation_bits) {
    case 2: return Modulation::kQpsk;
    case 4: return Modulation::k16Qam;
    default: return Modulation::k64Qam;
  }
}

}  // namespace

// The structs below are held (directly or via DecodeCtx) by
// detail::UplinkTti, whose definition pipeline.h forward-declares —
// external linkage keeps GCC's -Wsubobject-linkage quiet. Their names
// are TU-local by convention only.

/// A prepared transport block: segmentation plan + per-block turbo
/// codewords; transmittable at any redundancy version.
struct PreparedTb {
  phy::SegmentationPlan plan;
  std::vector<phy::TurboCodeword> codewords;
  int e_per_block = 0;
};

PreparedTb prepare_tb(std::span<const std::uint8_t> pdu,
                      const PipelineConfig& cfg, PacketObs& po, int n_prb,
                      PipelineWorkspace& ws) {
  PreparedTb out;
  std::vector<std::vector<std::uint8_t>> blocks;
  {
    StageScope st(po, Stage::kCrcSegmentation);
    auto bits = unpack_bits(pdu);
    phy::crc_attach(bits, CrcType::k24A);
    out.plan = phy::make_segmentation_plan(static_cast<int>(bits.size()));
    blocks = phy::segment_bits(bits, out.plan);
  }
  const int g = mac::allocation_coded_bits(cfg.mcs, n_prb);
  const int qm = mac::mcs_entry(cfg.mcs).modulation_bits;
  out.e_per_block = (g / out.plan.c / qm) * qm;
  out.codewords.reserve(static_cast<std::size_t>(out.plan.c));
  for (int i = 0; i < out.plan.c; ++i) {
    const int k = out.plan.block_size(i);
    StageScope st(po, Stage::kTurboEncode, i);
    out.codewords.push_back(
        ws.codecs().encoder(k).encode(blocks[static_cast<std::size_t>(i)]));
  }
  return out;
}

/// One transmission of a prepared TB at redundancy version `rv`.
struct EncodedTb {
  std::vector<phy::Cf> time;
  const PreparedTb* tb = nullptr;
  phy::SegmentationPlan plan;  // copy for the decode side
  int e_per_block = 0;
  int rv = 0;
  std::size_t n_symbols = 0;
};

EncodedTb phy_transmit(const PreparedTb& tb, const PipelineConfig& cfg,
                       std::uint32_t tti, PacketObs& po,
                       const phy::OfdmModulator& ofdm, int rv,
                       PipelineWorkspace& ws) {
  EncodedTb out;
  out.tb = &tb;
  out.plan = tb.plan;
  out.e_per_block = tb.e_per_block;
  out.rv = rv;

  std::vector<std::uint8_t> coded;
  coded.reserve(static_cast<std::size_t>(tb.e_per_block) *
                tb.codewords.size());
  for (int i = 0; i < tb.plan.c; ++i) {
    const int k = tb.plan.block_size(i);
    StageScope st(po, Stage::kRateMatch, i);
    const auto e = ws.codecs().matcher(k).match(
        tb.codewords[static_cast<std::size_t>(i)], tb.e_per_block, rv,
        cfg.isa);
    coded.insert(coded.end(), e.begin(), e.end());
  }

  {
    StageScope st(po, Stage::kScramble);
    phy::scramble_bits(coded, phy::pusch_c_init(cfg.rnti, 0,
                                                static_cast<int>(tti % 20),
                                                cfg.cell_id));
  }

  std::vector<phy::IqSample> symbols;
  {
    StageScope st(po, Stage::kModulation);
    symbols = phy::modulate(coded, mod_of(cfg.mcs));
  }
  out.n_symbols = symbols.size();

  {
    StageScope st(po, Stage::kOfdmTx);
    out.time = ofdm.modulate(symbols);
  }
  return out;
}

/// Receive-side HARQ state: one soft circular buffer per code block,
/// combined across transmissions. The buffers live in the packet's arena
/// frame — carved after the per-packet reset, valid across every
/// retransmission of that packet.
struct HarqBuffers {
  std::span<std::span<std::int16_t>> w;  ///< per-block soft buffer

  void prepare(const phy::SegmentationPlan& plan, PipelineWorkspace& ws) {
    w = ws.arena().make_span<std::span<std::int16_t>>(
        static_cast<std::size_t>(plan.c));
    for (int i = 0; i < plan.c; ++i) {
      const int k = plan.block_size(i);
      w[static_cast<std::size_t>(i)] = ws.arena().make_zero_span<std::int16_t>(
          static_cast<std::size_t>(phy::RateMatcher::buffer_size_for(k)));
    }
  }
};

/// Inverse direction: time samples back to a MAC PDU. `pdu` points into
/// the workspace arena — valid until the next packet's reset.
struct DecodedTb {
  bool crc_ok = false;
  int turbo_iterations = 0;
  std::uint64_t allocs = 0;  ///< heap allocations during this decode
  std::span<const std::uint8_t> pdu;
};

/// Decode-front output held across the scheduler run: the per-block
/// state the back phase folds into the packet. Spans point into the
/// workspace arena (valid until the pipeline's next packet).
struct DecodeCtx {
  const EncodedTb* enc = nullptr;
  std::span<DecodeOutcome> outcomes;  ///< written by the DecodeScheduler
  std::span<std::span<std::uint8_t>> hard;
  std::uint64_t allocs = 0;  ///< front-phase heap allocations
};

/// Receive front: OFDM rx -> soft demap -> descramble -> per-block
/// de-rate-match + data arrangement, ending with one DecodeJob per code
/// block appended to `jobs` (decoded later by a DecodeScheduler — the
/// pipeline's own for per-TB grouping, or BatchRunner's shared one for
/// cross-TB/cross-UE grouping).
///
/// Code blocks are independent after segmentation, so with a pool the
/// dematch+arrange stage runs one block per worker. The driving thread
/// resolves every codec object and carves every buffer BEFORE the fork;
/// workers receive raw pointers and disjoint spans and never touch the
/// workspace. Each block's StageScopes record from the worker that ran
/// it: histogram shards fold on snapshot (order-independent, so sample
/// counts are identical for any worker count) and spans carry the
/// worker id.
void phy_decode_front(const EncodedTb& enc, const PipelineConfig& cfg,
                      std::uint32_t tti, PacketObs& po,
                      const phy::OfdmModulator& ofdm, HarqBuffers* harq,
                      ThreadPool* pool, PipelineWorkspace& ws,
                      std::vector<DecodeJob>& jobs, DecodeCtx& ctx) {
  const std::uint64_t news0 = alloc_stats::news();
  MonotonicArena& arena = ws.arena();

  const auto symbols = arena.make_span<phy::IqSample>(enc.n_symbols);
  {
    StageScope st(po, Stage::kOfdmRx);
    const auto fft_scratch = arena.make_span<phy::Cf>(
        static_cast<std::size_t>(ofdm.config().nfft));
    ofdm.demodulate_into(enc.time, symbols, fft_scratch);
  }

  const Modulation mod = mod_of(cfg.mcs);
  const auto llr = arena.make_span<std::int16_t>(
      symbols.size() * static_cast<std::size_t>(phy::bits_per_symbol(mod)));
  {
    StageScope st(po, Stage::kDemodulation);
    const double n0_re =
        cfg.with_channel ? std::pow(10.0, -cfg.snr_db / 10.0) : 0.01;
    phy::demodulate_llr_into(symbols, mod,
                             n0_re * phy::kIqScale * phy::kIqScale, llr,
                             phy::kDefaultLlrScale, cfg.isa);
  }

  {
    StageScope st(po, Stage::kDescramble);
    phy::descramble_llr(llr, phy::pusch_c_init(cfg.rnti, 0,
                                               static_cast<int>(tti % 20),
                                               cfg.cell_id),
                        cfg.isa);
  }

  apply_llr_faults(cfg, tti, enc.rv, llr);

  const bool multi = enc.plan.c > 1;
  const std::size_t n_blocks = static_cast<std::size_t>(enc.plan.c);
  const auto outcomes = arena.make_object_span<DecodeOutcome>(n_blocks);
  const auto hard = arena.make_span<std::span<std::uint8_t>>(n_blocks);
  const auto w_bufs = arena.make_span<std::span<std::int16_t>>(n_blocks);
  const auto triples = arena.make_span<std::span<std::int16_t>>(n_blocks);
  const auto matchers = arena.make_span<const phy::RateMatcher*>(n_blocks);
  const auto arranged =
      arena.make_span<std::span<std::int16_t>>(3 * n_blocks);
  for (std::size_t bi = 0; bi < n_blocks; ++bi) {
    const int k = enc.plan.block_size(static_cast<int>(bi));
    hard[bi] = arena.make_span<std::uint8_t>(static_cast<std::size_t>(k));
    const std::size_t nt = static_cast<std::size_t>(k) + phy::kTurboTail;
    triples[bi] = arena.make_span<std::int16_t>(3 * nt);
    for (int s = 0; s < 3; ++s) {
      arranged[3 * bi + static_cast<std::size_t>(s)] =
          arena.make_span<std::int16_t>(nt);
    }
    matchers[bi] = &ws.codecs().matcher(k);
    // Non-HARQ transmissions accumulate into a fresh zeroed buffer —
    // exactly RateMatcher::dematch — so both paths share one shape.
    w_bufs[bi] = harq != nullptr
                     ? harq->w[bi]
                     : arena.make_zero_span<std::int16_t>(static_cast<
                           std::size_t>(phy::RateMatcher::buffer_size_for(k)));
  }

  // Forced early-stop miss: the block burns max_iterations instead of
  // exiting at CRC pass / repeat detection. Keyed per (packet, block),
  // so which blocks miss is rerun- and worker-count-stable.
  const auto miss_early_stop = [&](std::size_t bi) {
    return cfg.fault != nullptr &&
           cfg.fault->fire(fault::FaultPoint::kTurboEarlyStopMiss,
                           (fault_key(cfg, tti, enc.rv) << 7) ^ bi);
  };

  // Stage A (per block, parallel): de-rate-match, then de-interleave the
  // triples into per-stream arranged spans with cfg.arrange_method; the
  // batched decoder consumes arranged streams.
  const auto arrange_block = [&](std::size_t bi) {
    const auto i = static_cast<std::int32_t>(bi);
    {
      StageScope st(po, Stage::kRateDematch, i);
      const auto slice = std::span<const std::int16_t>(llr).subspan(
          bi * static_cast<std::size_t>(enc.e_per_block),
          static_cast<std::size_t>(enc.e_per_block));
      matchers[bi]->dematch_accumulate(slice, enc.rv, w_bufs[bi], cfg.isa);
      matchers[bi]->buffer_to_triples_into(w_bufs[bi], triples[bi], cfg.isa);
    }
    StageScope st(po, Stage::kArrange, i);
    arrange::Options opt;
    opt.method = cfg.arrange_method;
    opt.isa = cfg.isa;
    opt.order = arrange::Order::kCanonical;
    arrange::deinterleave3_i16(triples[bi], arranged[3 * bi],
                               arranged[3 * bi + 1], arranged[3 * bi + 2],
                               opt);
  };

  if (pool != nullptr && n_blocks > 1) {
    pool->parallel_for(0, n_blocks, arrange_block);
  } else {
    for (std::size_t bi = 0; bi < n_blocks; ++bi) arrange_block(bi);
  }

  // One DecodeJob per block (driving thread); the scheduler groups them,
  // with other TBs' blocks in cross-TB mode.
  for (std::size_t bi = 0; bi < n_blocks; ++bi) {
    DecodeJob j;
    j.k = enc.plan.block_size(static_cast<int>(bi));
    j.isa = cfg.isa;
    j.max_iterations = cfg.max_turbo_iterations;
    j.crc_multi = multi;
    j.force_full = miss_early_stop(bi);
    j.in = {arranged[3 * bi], arranged[3 * bi + 1], arranged[3 * bi + 2]};
    j.hard = hard[bi];
    j.out = &outcomes[bi];
    j.trace = po.trace;
    j.tti = po.tti;
    j.block = static_cast<std::int32_t>(bi);
    j.turbo_ns = po.h[Stage::kTurboDecode].ns;
    j.pmu = po.h[Stage::kTurboDecode].pmu.ptr();
    jobs.push_back(j);
  }

  ctx.enc = &enc;
  ctx.outcomes = outcomes;
  ctx.hard = hard;
  ctx.allocs = alloc_stats::news() - news0;
}

/// Receive back: gather the per-block outcomes (the scheduler has filled
/// them by now), then desegment and check the TB CRC.
DecodedTb phy_decode_back(PacketObs& po, PipelineWorkspace& ws,
                          DecodeCtx& ctx) {
  const std::uint64_t news0 = alloc_stats::news();
  DecodedTb out;
  MonotonicArena& arena = ws.arena();
  const EncodedTb& enc = *ctx.enc;
  const std::size_t n_blocks = ctx.hard.size();

  bool all_ok = true;
  int max_iters = 0;
  for (const auto& o : ctx.outcomes) {
    all_ok = all_ok && o.crc_ok;
    max_iters = std::max(max_iters, o.iterations);
  }
  out.turbo_iterations = max_iters;

  // Desegment + TB CRC.
  {
    StageScope st(po, Stage::kDesegmentation);
    const auto views =
        arena.make_span<std::span<const std::uint8_t>>(n_blocks);
    for (std::size_t bi = 0; bi < n_blocks; ++bi) views[bi] = ctx.hard[bi];
    const auto bits =
        arena.make_span<std::uint8_t>(static_cast<std::size_t>(enc.plan.b));
    const bool seg_ok = phy::desegment_bits(views, enc.plan, bits);
    const bool tb_ok = phy::crc_check(bits, CrcType::k24A);
    // seg_ok counts in BOTH arms: a single-block TB whose codeword came
    // back the wrong size is a failed TB even if a CRC over the salvaged
    // bits happens to pass (leading-zero hazard; see segmentation.h).
    out.crc_ok = seg_ok && all_ok && tb_ok;
    if (bits.size() >= 24) {
      const auto payload = std::span<const std::uint8_t>(bits)
                               .first(bits.size() - 24);  // strip TB CRC
      const auto pdu = arena.make_span<std::uint8_t>((payload.size() + 7) / 8);
      pack_bits_into(payload, pdu);
      out.pdu = pdu;
    }
  }
  out.allocs = ctx.allocs + (alloc_stats::news() - news0);
  return out;
}

/// Pool backing a pipeline's decode chain: num_workers-way concurrency
/// counts the calling thread, so N workers means N-1 pool threads and no
/// pool at all for the bit-exact legacy N == 1 path.
std::unique_ptr<ThreadPool> make_decode_pool(const PipelineConfig& cfg) {
  if (cfg.num_workers <= 1) return nullptr;
  return std::make_unique<ThreadPool>(cfg.num_workers - 1, cfg.metrics,
                                      cfg.fault, cfg.pmu);
}

/// HARQ redundancy-version sequence (36.212): 0 -> 2 -> 3 -> 1.
constexpr int kRvSeq[4] = {0, 2, 3, 1};

namespace detail {

/// One staged packet in flight (see the "Staged TTI API" in pipeline.h):
/// everything send_packet used to keep on its stack, held across phases
/// so BatchRunner can interleave many flows around a shared scheduler.
struct UplinkTti {
  PacketResult res;
  std::uint32_t tti = 0;
  PreparedTb tb;
  HarqBuffers harq;
  bool use_harq = false;
  int tx = 0;        ///< transmissions completed (collected)
  bool active = false;
  EncodedTb enc;
  DecodeCtx ctx;
  DecodedTb dec;
  std::optional<obs::ScopedSpan> span;  ///< "packet" trace span
};

}  // namespace detail

UplinkPipeline::UplinkPipeline(PipelineConfig cfg)
    : cfg_(cfg),
      ofdm_(cfg.ofdm, cfg.isa),
      channel_(time_domain_snr_db(cfg.snr_db, cfg.ofdm.nfft),
               cfg.noise_seed),
      pool_(make_decode_pool(cfg)),
      obs_(std::make_unique<detail::PipelineObs>(cfg.metrics, cfg.pmu)),
      ws_(cfg.codec_cache_capacity),
      sched_(std::make_unique<DecodeScheduler>(cfg.metrics)),
      state_(std::make_unique<detail::UplinkTti>()) {}

UplinkPipeline::~UplinkPipeline() = default;

PacketResult UplinkPipeline::send_packet(
    std::span<const std::uint8_t> ip_packet) {
  tti_begin(ip_packet);
  while (!tti_done()) {
    sched_->begin();
    tti_transmit();
    sched_->submit(pending_jobs());
    {
      Stopwatch ssw;
      const std::uint64_t a0 = alloc_stats::news();
      sched_->run(ws_, pool_.get());
      tti_add_decode_allocs(alloc_stats::news() - a0);
      tti_add_latency(ssw.seconds());
    }
    tti_collect();
  }
  return tti_finish();
}

void UplinkPipeline::tti_begin(std::span<const std::uint8_t> ip_packet) {
  auto& st = *state_;
  Stopwatch phase;
  st.res = PacketResult{};
  st.tti = tti_++;
  st.tx = 0;
  st.active = true;
  st.ctx = DecodeCtx{};
  st.dec = DecodedTb{};
  // One arena frame per packet: everything the decode chain carves
  // (including HARQ soft buffers, reused across retransmissions) lives
  // until this packet completes; the next packet rewinds it in O(1).
  ws_.arena().reset();
  PacketObs po{*obs_, cfg_.trace, st.tti};
  st.span.emplace(cfg_.trace, "packet", st.tti);

  // UE MAC: size the transport block to the packet.
  std::vector<std::uint8_t> pdu;
  int n_prb = 0;
  {
    StageScope stage(po, Stage::kMac);
    const int payload_bits =
        static_cast<int>(ip_packet.size() + mac::kMacHeaderBytes) * 8;
    n_prb = mac::prbs_for_payload(payload_bits, cfg_.mcs, cfg_.max_prb);
    const int tbs = mac::transport_block_bits(cfg_.mcs, n_prb);
    mac::MacSdu sdu;
    sdu.lcid = 1;
    sdu.data.assign(ip_packet.begin(), ip_packet.end());
    pdu = mac::mac_build_pdu(sdu, static_cast<std::size_t>(tbs / 8));
  }
  st.res.tb_bytes = pdu.size();

  st.tb = prepare_tb(pdu, cfg_, po, n_prb, ws_);
  st.res.code_blocks = static_cast<std::size_t>(st.tb.plan.c);

  st.use_harq = cfg_.harq_max_tx > 1;
  if (st.use_harq) st.harq.prepare(st.tb.plan, ws_);
  st.res.latency_seconds += phase.seconds();
}

bool UplinkPipeline::tti_done() const {
  const auto& st = *state_;
  return !st.active || st.dec.crc_ok ||
         st.tx >= std::max(1, cfg_.harq_max_tx);
}

void UplinkPipeline::tti_transmit() {
  auto& st = *state_;
  Stopwatch phase;
  PacketObs po{*obs_, cfg_.trace, st.tti};
  st.res.transmissions = st.tx + 1;
  st.enc =
      phy_transmit(st.tb, cfg_, st.tti, po, ofdm_, kRvSeq[st.tx % 4], ws_);
  if (cfg_.with_channel) {
    Stopwatch csw;
    StageScope stage(po, Stage::kChannel);
    channel_.apply(std::span<phy::Cf>(st.enc.time));
    st.res.channel_seconds += csw.seconds();
  }
  jobs_.clear();
  phy_decode_front(st.enc, cfg_, st.tti, po, ofdm_,
                   st.use_harq ? &st.harq : nullptr, pool_.get(), ws_,
                   jobs_, st.ctx);
  st.res.latency_seconds += phase.seconds();
}

void UplinkPipeline::tti_collect() {
  auto& st = *state_;
  Stopwatch phase;
  PacketObs po{*obs_, cfg_.trace, st.tti};
  st.dec = phy_decode_back(po, ws_, st.ctx);
  st.res.decode_allocs += st.dec.allocs;
  ++st.tx;
  st.res.latency_seconds += phase.seconds();
}

PacketResult UplinkPipeline::tti_finish() {
  auto& st = *state_;
  Stopwatch phase;
  PacketObs po{*obs_, cfg_.trace, st.tti};
  st.res.crc_ok = st.dec.crc_ok;
  st.res.turbo_iterations = st.dec.turbo_iterations;

  // eNB MAC + GTP-U toward the EPC.
  if (st.dec.crc_ok) {
    std::optional<mac::MacSdu> sdu;
    {
      StageScope stage(po, Stage::kMac);
      sdu = mac::mac_parse_pdu(st.dec.pdu);
    }
    if (sdu.has_value()) {
      StageScope stage(po, Stage::kGtpu);
      st.res.egress = net::gtpu_encapsulate(cfg_.teid, sdu->data);
      // Wire mangling on the S1-U leg: the frame still egresses
      // (delivered = true from the eNB's perspective); the EPC side
      // drops it and counts "net.gtpu.decap_drop".
      if (cfg_.fault != nullptr) {
        net::gtpu_apply_fault(st.res.egress, *cfg_.fault,
                              fault_key(cfg_, st.tti, 0));
      }
      st.res.delivered = true;
    }
  }
  st.res.latency_seconds += phase.seconds();
  st.span.reset();
  st.active = false;

  if (obs_->packets != nullptr) {
    obs_->packets->add();
    if (st.res.delivered) obs_->delivered->add();
    if (!st.res.crc_ok) obs_->crc_fail->add();
    if (st.res.transmissions > 1) {
      obs_->harq_retx->add(
          static_cast<std::uint64_t>(st.res.transmissions - 1));
    }
    obs_->latency_ns->record(to_ns(st.res.latency_seconds));
    obs_->proc_ns->record(
        to_ns(st.res.latency_seconds - st.res.channel_seconds));
  }
  return std::move(st.res);
}

void UplinkPipeline::set_quality(int harq_max_tx, int max_turbo_iterations) {
  if (state_->active) {
    throw std::logic_error(
        "UplinkPipeline::set_quality: packet staged (call between TTIs)");
  }
  cfg_.harq_max_tx = std::max(1, harq_max_tx);
  cfg_.max_turbo_iterations = std::max(1, max_turbo_iterations);
}

void UplinkPipeline::tti_add_latency(double seconds) {
  state_->res.latency_seconds += seconds;
}

void UplinkPipeline::tti_add_decode_allocs(std::uint64_t allocs) {
  state_->res.decode_allocs += allocs;
}

DownlinkPipeline::DownlinkPipeline(PipelineConfig cfg)
    : cfg_(cfg),
      ofdm_(cfg.ofdm, cfg.isa),
      channel_(time_domain_snr_db(cfg.snr_db, cfg.ofdm.nfft),
               cfg.noise_seed + 1),
      pool_(make_decode_pool(cfg)),
      obs_(std::make_unique<detail::PipelineObs>(cfg.metrics, cfg.pmu)),
      ws_(cfg.codec_cache_capacity),
      sched_(std::make_unique<DecodeScheduler>(cfg.metrics)) {}

DownlinkPipeline::~DownlinkPipeline() = default;

PacketResult DownlinkPipeline::send_packet(
    std::span<const std::uint8_t> ip_packet) {
  Stopwatch total;
  PacketResult res;
  const std::uint32_t tti = tti_++;
  ws_.arena().reset();  // one arena frame per packet (see uplink)
  PacketObs po{*obs_, cfg_.trace, tti};
  obs::ScopedSpan packet_span(cfg_.trace, "packet", tti);

  const auto finish = [&] {
    res.latency_seconds = total.seconds();
    if (obs_->packets != nullptr) {
      obs_->packets->add();
      if (res.delivered) obs_->delivered->add();
      if (!res.crc_ok) obs_->crc_fail->add();
      obs_->latency_ns->record(to_ns(res.latency_seconds));
      obs_->proc_ns->record(
          to_ns(res.latency_seconds - res.channel_seconds));
    }
  };

  // eNB: de-encapsulate from the EPC side and build the MAC PDU.
  std::vector<std::uint8_t> pdu;
  int n_prb = 0;
  {
    StageScope st(po, Stage::kMac);
    const int payload_bits =
        static_cast<int>(ip_packet.size() + mac::kMacHeaderBytes) * 8;
    n_prb = mac::prbs_for_payload(payload_bits, cfg_.mcs, cfg_.max_prb);
    const int tbs = mac::transport_block_bits(cfg_.mcs, n_prb);
    mac::MacSdu sdu;
    sdu.lcid = 2;
    sdu.data.assign(ip_packet.begin(), ip_packet.end());
    pdu = mac::mac_build_pdu(sdu, static_cast<std::size_t>(tbs / 8));
  }
  res.tb_bytes = pdu.size();

  // DCI grant on the control channel (encode at eNB, decode at UE).
  {
    StageScope st(po, Stage::kDci);
    phy::DciPayload grant;
    grant.rb_start = 0;
    grant.rb_len = static_cast<std::uint8_t>(n_prb);
    grant.mcs = static_cast<std::uint8_t>(cfg_.mcs);
    grant.harq_id = static_cast<std::uint8_t>(tti % 8);
    const auto dci_bits = phy::dci_encode(grant, cfg_.rnti, 288);
    std::vector<std::int16_t> dci_llr(dci_bits.size());
    for (std::size_t i = 0; i < dci_bits.size(); ++i) {
      dci_llr[i] = dci_bits[i] ? 60 : -60;
    }
    const auto got = phy::dci_decode(dci_llr, cfg_.rnti);
    if (!got.has_value() || got->rb_len != grant.rb_len) {
      finish();  // control channel failure: no data transmission
      return res;
    }
  }

  const auto tb = prepare_tb(pdu, cfg_, po, n_prb, ws_);
  res.code_blocks = static_cast<std::size_t>(tb.plan.c);
  res.transmissions = 1;
  auto enc = phy_transmit(tb, cfg_, tti, po, ofdm_, /*rv=*/0, ws_);

  if (cfg_.with_channel) {
    Stopwatch csw;
    StageScope st(po, Stage::kChannel);
    channel_.apply(std::span<phy::Cf>(enc.time));
    res.channel_seconds = csw.seconds();
  }

  sched_->begin();
  jobs_.clear();
  DecodeCtx ctx;
  phy_decode_front(enc, cfg_, tti, po, ofdm_, nullptr, pool_.get(), ws_,
                   jobs_, ctx);
  sched_->submit(jobs_);
  {
    const std::uint64_t a0 = alloc_stats::news();
    sched_->run(ws_, pool_.get());
    ctx.allocs += alloc_stats::news() - a0;
  }
  const auto dec = phy_decode_back(po, ws_, ctx);
  res.crc_ok = dec.crc_ok;
  res.turbo_iterations = dec.turbo_iterations;
  res.decode_allocs = dec.allocs;

  if (dec.crc_ok) {
    std::optional<mac::MacSdu> sdu;
    {
      StageScope st(po, Stage::kMac);
      sdu = mac::mac_parse_pdu(dec.pdu);
    }
    if (sdu.has_value()) {
      res.egress = sdu->data;  // delivered to the UE's IP stack
      res.delivered = true;
    }
  }
  finish();
  return res;
}

}  // namespace vran::pipeline
