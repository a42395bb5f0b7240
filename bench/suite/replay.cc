#include "bench/suite/replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "common/alloc_stats.h"
#include "common/bitio.h"
#include "mac/mac_pdu.h"
#include "mac/tbs_tables.h"
#include "net/gtpu.h"
#include "phy/crc/crc.h"
#include "phy/turbo/turbo_batch.h"

namespace vran::bench {

namespace {

constexpr const char* kLayerNames[kLayerCount] = {
    "tti",
    "harq_round",
    "testbed.ue_encode",
    "testbed.ue_tx",
    "testbed.channel",
    "ofdm.rx",
    "modulation.demap",
    "scramble.descramble",
    "ratematch.dematch",
    "arrange.deinterleave",
    "turbo.decode",
    "segmentation.deseg",
    "crc.tb_check",
    "mac.parse",
    "net.gtpu",
};

/// HARQ redundancy-version cycle, as UplinkPipeline::tti_transmit uses it.
constexpr int kRvSeq[4] = {0, 2, 3, 1};
/// Untraced warm-up TTIs ahead of the traced ones (closed loop), matching
/// the untraced run's warm-up.
constexpr int kWarmupTtis = 50;

/// Span recorder for one replay. Spans of the TTI in flight live in
/// `cur_`; end_tti() folds their self times into the totals and, while
/// fewer than `keep` TTIs were kept, appends them to the result.
class Recorder {
 public:
  std::uint64_t now() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  void begin_tti(int tti) {
    cur_.clear();
    open_ = -1;
    tti_ = tti;
  }
  int open(int layer, int flow) {
    Span s;
    s.parent = open_;
    s.tti = tti_;
    s.flow = flow;
    s.layer = static_cast<std::uint8_t>(layer);
    cur_.push_back(s);
    open_ = static_cast<int>(cur_.size()) - 1;
    cur_.back().begin_ns = now();
    return open_;
  }
  void close(int idx) {
    auto& s = cur_[static_cast<std::size_t>(idx)];
    s.end_ns = now();
    open_ = s.parent;
  }
  void end_tti(ReplayResult& out, int keep) {
    std::array<std::uint64_t, kLayerCount> self{};
    for (const Span& s : cur_) {
      self[s.layer] += s.end_ns - s.begin_ns;
      if (s.parent >= 0) {
        self[cur_[static_cast<std::size_t>(s.parent)].layer] -=
            s.end_ns - s.begin_ns;
      }
    }
    for (int l = 0; l < kLayerCount; ++l) out.self_ns[l] += self[l];
    if (out.ttis < keep) {
      const auto base = static_cast<std::int32_t>(out.spans.size());
      for (Span s : cur_) {
        if (s.parent >= 0) s.parent += base;
        out.spans.push_back(s);
      }
    }
    ++out.ttis;
  }

  std::uint64_t decode_allocs = 0;

 private:
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<Span> cur_;
  int open_ = -1;
  int tti_ = 0;
};

/// The decode chain PacketResult::decode_allocs covers: OFDM rx through
/// the TB CRC. (MAC parse and GTP-U return fresh vectors by design.)
bool counts_allocs(int layer) { return layer >= kOfdmRx && layer <= kCrc; }

/// One span around the enclosed public calls; decode-chain spans also
/// count the heap allocations made inside them.
class Scope {
 public:
  Scope(Recorder& r, int layer, int flow)
      : r_(r), idx_(r.open(layer, flow)), counted_(counts_allocs(layer)),
        news0_(counted_ ? alloc_stats::news() : 0) {}
  ~Scope() {
    if (counted_) r_.decode_allocs += alloc_stats::news() - news0_;
    r_.close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder& r_;
  int idx_;
  bool counted_;
  std::uint64_t news0_;
};

phy::Modulation mod_of(int mcs) {
  return static_cast<phy::Modulation>(mac::mcs_entry(mcs).modulation_bits);
}

/// One UE flow's replay state: the same per-flow objects an
/// UplinkPipeline owns (workspace with codec caches and arena, channel,
/// packet counter) plus the staged packet.
struct Flow {
  explicit Flow(const pipeline::PipelineConfig& c)
      : cfg(c), ws(c.codec_cache_capacity),
        channel(pipeline::time_domain_snr_db(c.snr_db, c.ofdm.nfft),
                c.noise_seed) {}

  pipeline::PipelineConfig cfg;
  pipeline::PipelineWorkspace ws;
  phy::AwgnChannel channel;
  std::uint32_t next_tti = 0;

  // Staged packet.
  const std::vector<std::uint8_t>* sent = nullptr;
  std::uint32_t tti = 0;
  phy::SegmentationPlan plan;
  std::vector<phy::TurboCodeword> codewords;
  int e_per_block = 0;
  int tx = 0;
  bool active = false;
  bool crc_ok = false;
  int iterations = 0;
  std::span<std::span<std::int16_t>> harq;
  std::span<const std::uint8_t> pdu;

  // Transmission in flight.
  int rv = 0;
  std::vector<phy::Cf> time;
  std::size_t n_symbols = 0;
  std::vector<pipeline::DecodeJob> jobs;
  std::span<pipeline::DecodeOutcome> outcomes;
  std::span<std::span<std::uint8_t>> hard;

  std::uint32_t c_init() const {
    return phy::pusch_c_init(cfg.rnti, 0, static_cast<int>(tti % 20),
                             cfg.cell_id);
  }
};

class Replayer {
 public:
  Replayer(const Workload& w, const Inputs& in)
      : w_(w), in_(in),
        ofdm_(pipeline::PipelineConfig{}.ofdm, best_isa()),
        sched_(nullptr), sched_ws_(pipeline::PipelineConfig{}
                                       .codec_cache_capacity) {
    if (w.loop == Loop::kClosed) {
      for (int ue = 0; ue < w.ues; ++ue) {
        flows_.push_back(std::make_unique<Flow>(flow_config(
            w, 0, ue, in.noise_seeds[static_cast<std::size_t>(ue)])));
      }
    } else {
      const auto mc = multicell_config(w, in.noise_seeds[0]);
      for (int c = 0; c < w.cells; ++c) {
        for (int ue = 0; ue < w.ues; ++ue) {
          flows_.push_back(std::make_unique<Flow>(
              pipeline::MultiCellRunner::flow_config(mc, c, ue)));
        }
      }
    }
  }

  ReplayResult run(double seconds, int max_ttis, int keep) {
    ReplayResult warm;
    if (w_.loop == Loop::kClosed) {
      for (int t = 0; t < kWarmupTtis; ++t) {
        tti(t, pool_at(t), warm, 0);
      }
    } else {
      for (const Packet& p : in_.prime) {
        single(0, p, warm, 0);
      }
    }
    rec_.decode_allocs = 0;

    ReplayResult out;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0;; ++i) {
      if (max_ttis > 0 && i >= max_ttis) break;
      if (max_ttis <= 0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
                  .count() >= seconds) {
        break;
      }
      if (w_.loop == Loop::kClosed) {
        tti(i, pool_at(kWarmupTtis + i), out, keep);
      } else {
        single(i, in_.schedule[static_cast<std::size_t>(i) %
                               in_.schedule.size()],
               out, keep);
      }
    }
    out.decode_allocs = rec_.decode_allocs;
    return out;
  }

 private:
  const std::vector<std::vector<std::uint8_t>>& pool_at(int t) const {
    return in_.ttis[static_cast<std::size_t>(t) % in_.ttis.size()];
  }

  /// Closed loop: one TTI of every UE, BatchRunner's cross-TB order.
  void tti(int t, const std::vector<std::vector<std::uint8_t>>& packets,
           ReplayResult& out, int keep) {
    rec_.begin_tti(t);
    const int root = rec_.open(kTti, -1);
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      begin(static_cast<int>(f), packets[f]);
    }
    rounds(out);
    rec_.close(root);
    rec_.end_tti(out, keep);
  }

  /// Open loop: one packet through its own flow, as a one-packet TTI.
  void single(int t, const Packet& p, ReplayResult& out, int keep) {
    const int f = p.cell * w_.ues + p.ue;
    rec_.begin_tti(t);
    const int root = rec_.open(kTti, -1);
    begin(f, p.bytes);
    rounds(out);
    rec_.close(root);
    rec_.end_tti(out, keep);
  }

  /// HARQ rounds until every staged flow is done.
  void rounds(ReplayResult& out) {
    sched_ws_.arena().reset();
    for (;;) {
      bool any = false;
      for (const auto& fl : flows_) any = any || fl->active;
      if (!any) return;
      const int round = rec_.open(kRound, -1);
      sched_.begin();
      for (std::size_t f = 0; f < flows_.size(); ++f) {
        if (flows_[f]->active) transmit(static_cast<int>(f));
      }
      for (const auto& fl : flows_) {
        if (fl->active) sched_.submit(fl->jobs);
      }
      {
        Scope s(rec_, kTurbo, -1);
        sched_.run(sched_ws_, nullptr);
      }
      for (std::size_t f = 0; f < flows_.size(); ++f) {
        if (flows_[f]->active) collect(static_cast<int>(f), out);
      }
      rec_.close(round);
    }
  }

  /// UE side: MAC PDU, TB CRC, segmentation, turbo encoding
  /// (UplinkPipeline::tti_begin + prepare_tb).
  void begin(int f, const std::vector<std::uint8_t>& packet) {
    Flow& fl = *flows_[static_cast<std::size_t>(f)];
    const auto& cfg = fl.cfg;
    fl.sent = &packet;
    fl.tti = fl.next_tti++;
    fl.tx = 0;
    fl.active = true;
    fl.crc_ok = false;
    fl.pdu = {};
    fl.ws.arena().reset();

    std::vector<std::uint8_t> pdu;
    int n_prb = 0;
    {
      Scope s(rec_, kUeEncode, f);
      const int payload_bits =
          static_cast<int>(packet.size() + mac::kMacHeaderBytes) * 8;
      n_prb = mac::prbs_for_payload(payload_bits, cfg.mcs, cfg.max_prb);
      const int tbs = mac::transport_block_bits(cfg.mcs, n_prb);
      mac::MacSdu sdu;
      sdu.lcid = 1;
      sdu.data.assign(packet.begin(), packet.end());
      pdu = mac::mac_build_pdu(sdu, static_cast<std::size_t>(tbs / 8));
    }
    std::vector<std::vector<std::uint8_t>> blocks;
    {
      Scope s(rec_, kUeEncode, f);
      auto bits = unpack_bits(pdu);
      phy::crc_attach(bits, phy::CrcType::k24A);
      fl.plan = phy::make_segmentation_plan(static_cast<int>(bits.size()));
      blocks = phy::segment_bits(bits, fl.plan);
    }
    const int g = mac::allocation_coded_bits(cfg.mcs, n_prb);
    const int qm = mac::mcs_entry(cfg.mcs).modulation_bits;
    fl.e_per_block = (g / fl.plan.c / qm) * qm;
    fl.codewords.clear();
    for (int i = 0; i < fl.plan.c; ++i) {
      Scope s(rec_, kUeEncode, f);
      fl.codewords.push_back(fl.ws.codecs()
                                 .encoder(fl.plan.block_size(i))
                                 .encode(blocks[static_cast<std::size_t>(i)]));
    }
    fl.harq = {};
    if (cfg.harq_max_tx > 1) {
      auto& arena = fl.ws.arena();
      fl.harq = arena.make_span<std::span<std::int16_t>>(
          static_cast<std::size_t>(fl.plan.c));
      for (int i = 0; i < fl.plan.c; ++i) {
        fl.harq[static_cast<std::size_t>(i)] =
            arena.make_zero_span<std::int16_t>(static_cast<std::size_t>(
                phy::RateMatcher::buffer_size_for(fl.plan.block_size(i))));
      }
    }
  }

  /// Tx chain + channel + receive front, ending in one DecodeJob per code
  /// block (phy_transmit, the channel, phy_decode_front).
  void transmit(int f) {
    Flow& fl = *flows_[static_cast<std::size_t>(f)];
    const auto& cfg = fl.cfg;
    const phy::Modulation mod = mod_of(cfg.mcs);
    fl.rv = kRvSeq[fl.tx % 4];

    std::vector<std::uint8_t> coded;
    coded.reserve(static_cast<std::size_t>(fl.e_per_block) *
                  fl.codewords.size());
    for (int i = 0; i < fl.plan.c; ++i) {
      Scope s(rec_, kUeTx, f);
      const auto e = fl.ws.codecs()
                         .matcher(fl.plan.block_size(i))
                         .match(fl.codewords[static_cast<std::size_t>(i)],
                                fl.e_per_block, fl.rv);
      coded.insert(coded.end(), e.begin(), e.end());
    }
    {
      Scope s(rec_, kUeTx, f);
      phy::scramble_bits(coded, fl.c_init());
    }
    std::vector<phy::IqSample> symbols;
    {
      Scope s(rec_, kUeTx, f);
      symbols = phy::modulate(coded, mod);
    }
    {
      Scope s(rec_, kUeTx, f);
      fl.time = ofdm_.modulate(symbols);
    }
    fl.n_symbols = symbols.size();
    {
      Scope s(rec_, kChannel, f);
      fl.channel.apply(std::span<phy::Cf>(fl.time));
    }

    auto& arena = fl.ws.arena();
    const auto rx = arena.make_span<phy::IqSample>(fl.n_symbols);
    const auto fft_work = arena.make_span<phy::Cf>(
        static_cast<std::size_t>(ofdm_.config().nfft));
    {
      Scope s(rec_, kOfdmRx, f);
      ofdm_.demodulate_into(fl.time, rx, fft_work);
    }
    const auto llr = arena.make_span<std::int16_t>(
        fl.n_symbols * static_cast<std::size_t>(phy::bits_per_symbol(mod)));
    {
      Scope s(rec_, kDemap, f);
      const double n0_re = std::pow(10.0, -cfg.snr_db / 10.0);
      phy::demodulate_llr_into(rx, mod,
                               n0_re * phy::kIqScale * phy::kIqScale, llr);
    }
    {
      Scope s(rec_, kDescramble, f);
      phy::descramble_llr(llr, fl.c_init());
    }

    const auto n = static_cast<std::size_t>(fl.plan.c);
    const bool multi = n > 1;
    fl.outcomes = arena.make_object_span<pipeline::DecodeOutcome>(n);
    fl.hard = arena.make_span<std::span<std::uint8_t>>(n);
    fl.jobs.clear();
    // Batching policy exactly as phy_decode_front offers it.
    const bool batch_ok =
        cfg.batch_decode && multi &&
        phy::TurboBatchDecoder::lane_capacity(cfg.isa) > 1;
    for (std::size_t bi = 0; bi < n; ++bi) {
      const int k = fl.plan.block_size(static_cast<int>(bi));
      const auto nt = static_cast<std::size_t>(k) + phy::kTurboTail;
      fl.hard[bi] = arena.make_span<std::uint8_t>(static_cast<std::size_t>(k));
      const auto triples = arena.make_span<std::int16_t>(3 * nt);
      const auto sys = arena.make_span<std::int16_t>(nt);
      const auto p1 = arena.make_span<std::int16_t>(nt);
      const auto p2 = arena.make_span<std::int16_t>(nt);
      const auto w_buf =
          !fl.harq.empty()
              ? fl.harq[bi]
              : arena.make_zero_span<std::int16_t>(static_cast<std::size_t>(
                    phy::RateMatcher::buffer_size_for(k)));
      const auto& matcher = fl.ws.codecs().matcher(k);
      {
        Scope s(rec_, kDematch, f);
        const auto slice = std::span<const std::int16_t>(llr).subspan(
            bi * static_cast<std::size_t>(fl.e_per_block),
            static_cast<std::size_t>(fl.e_per_block));
        matcher.dematch_accumulate(slice, fl.rv, w_buf);
        matcher.buffer_to_triples_into(w_buf, triples);
      }
      {
        Scope s(rec_, kArrange, f);
        arrange::Options opt;
        opt.method = cfg.arrange_method;
        opt.isa = cfg.isa;
        opt.order = arrange::Order::kCanonical;
        arrange::deinterleave3_i16(triples, sys, p1, p2, opt);
      }
      pipeline::DecodeJob j;
      j.k = k;
      j.isa = cfg.isa;
      j.max_iterations = cfg.max_turbo_iterations;
      j.crc_multi = multi;
      j.arrange_method = cfg.arrange_method;
      j.batch_ok = batch_ok;
      j.in = {sys, p1, p2};
      j.hard = fl.hard[bi];
      j.out = &fl.outcomes[bi];
      j.block = static_cast<std::int32_t>(bi);
      fl.jobs.push_back(j);
    }
  }

  /// Desegmentation + TB CRC (phy_decode_back), then HARQ bookkeeping and,
  /// once the TB is done, MAC parse + GTP-U (tti_finish).
  void collect(int f, ReplayResult& out) {
    Flow& fl = *flows_[static_cast<std::size_t>(f)];
    auto& arena = fl.ws.arena();
    bool all_ok = true;
    int max_iters = 0;
    for (const auto& o : fl.outcomes) {
      all_ok = all_ok && o.crc_ok;
      max_iters = std::max(max_iters, o.iterations);
    }
    const auto n = fl.hard.size();
    const auto views = arena.make_span<std::span<const std::uint8_t>>(n);
    for (std::size_t bi = 0; bi < n; ++bi) views[bi] = fl.hard[bi];
    const auto bits =
        arena.make_span<std::uint8_t>(static_cast<std::size_t>(fl.plan.b));
    bool seg_ok = false;
    {
      Scope s(rec_, kDeseg, f);
      seg_ok = phy::desegment_bits(views, fl.plan, bits);
    }
    bool tb_ok = false;
    {
      Scope s(rec_, kCrc, f);
      tb_ok = phy::crc_check(bits, phy::CrcType::k24A);
    }
    fl.crc_ok = seg_ok && all_ok && tb_ok;
    if (bits.size() >= 24) {
      const auto payload =
          std::span<const std::uint8_t>(bits).first(bits.size() - 24);
      const auto pdu = arena.make_span<std::uint8_t>((payload.size() + 7) / 8);
      {
        Scope s(rec_, kDeseg, f);
        pack_bits_into(payload, pdu);
      }
      fl.pdu = pdu;
    }
    fl.iterations = max_iters;
    ++fl.tx;
    if (!fl.crc_ok && fl.tx < std::max(1, fl.cfg.harq_max_tx)) return;

    fl.active = false;
    ++out.tbs;
    out.tb_iterations += static_cast<std::uint64_t>(fl.iterations);
    if (!fl.crc_ok) return;
    std::optional<mac::MacSdu> sdu;
    {
      Scope s(rec_, kMacParse, f);
      sdu = mac::mac_parse_pdu(fl.pdu);
    }
    if (!sdu.has_value()) return;
    std::vector<std::uint8_t> egress;
    {
      Scope s(rec_, kGtpu, f);
      egress = net::gtpu_encapsulate(fl.cfg.teid, sdu->data);
    }
    if (egress != net::gtpu_encapsulate(fl.cfg.teid, *fl.sent)) ++out.wrong;
  }

  const Workload& w_;
  const Inputs& in_;
  phy::OfdmModulator ofdm_;
  pipeline::DecodeScheduler sched_;
  pipeline::PipelineWorkspace sched_ws_;
  std::vector<std::unique_ptr<Flow>> flows_;
  Recorder rec_;
};

}  // namespace

const char* layer_name(int layer) { return kLayerNames[layer]; }

bool is_enb_layer(int layer) { return layer >= kOfdmRx; }

ReplayResult replay(const Workload& w, const Inputs& in, double seconds,
                    int max_ttis, int keep_ttis) {
  Replayer r(w, in);
  return r.run(seconds, max_ttis, keep_ttis);
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"tti\": %d, \"flow\": %d, "
                 "\"begin_ns\": %llu, \"end_ns\": %llu}}%s\n",
                 layer_name(s.layer), double(s.begin_ns) / 1e3,
                 double(s.end_ns - s.begin_ns) / 1e3, i, s.parent, s.tti,
                 s.flow, static_cast<unsigned long long>(s.begin_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace vran::bench
