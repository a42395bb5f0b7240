// Cross-ISA differential fuzzing harness.
//
// The paper's claim is that every SIMD tier of the receive chain
// (demodulation -> descramble -> de-rate-match -> data arrangement ->
// turbo decode) is a drop-in replacement for the scalar path. The golden
// vectors pin a handful of fixed configurations; this harness generates
// randomized transport blocks, grants, and channel conditions, runs each
// through the full uplink pipeline once per available ISA tier, and
// asserts the tiers agree on
//   * the egress bytes handed to the EPC (byte-identical),
//   * crc_ok, and
//   * the HARQ transmission count.
//
// On mismatch it minimizes the failing configuration (drop HARQ, drop
// the channel, drop workers, shrink the packet — keeping only changes
// that preserve the mismatch) and writes a reproducer dump (seed +
// config JSON) that `--replay <file>` re-executes exactly.
//
// Every tier decodes on the one exact batched turbo route, so the tiers
// must agree on every case, at waterfall SNRs too. Some cases also rail
// a burst of LLRs at full scale (the LLR fault points), which every
// tier, scalar included, must decode identically. `--batched` turns
// each case into one BatchRunner TTI that adds 1-7 single-block UEs of
// random size and MCS to the case's flow, so the decode scheduler packs
// mixed-K lane groups and the strict oracle covers the right-aligned
// batch kernels.
//
// Determinism: all randomness derives from VRAN_SEED streams (rng.h), so
// CI runs are reproducible; `--seed` overrides for ad-hoc exploration.
// `--break-tier <isa>` simulates a broken kernel by flipping one egress
// byte on that tier — the self-test path proving the harness detects and
// dumps real divergence (`--selftest` runs break + dump + replay
// end-to-end).
//
// Exit codes: 0 = clean (or --expect-mismatch satisfied), 1 = mismatch
// found (or expected one missing), 2 = usage/IO error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/rng.h"
#include "mac/mac_pdu.h"
#include "fault/fault.h"
#include "mac/tbs_tables.h"
#include "phy/segmentation/segmentation.h"
#include "pipeline/batch_runner.h"
#include "pipeline/pipeline.h"

using namespace vran;

namespace {

/// Seed stream id for this tool (see rng.h: VRAN_SEED perturbs it).
constexpr std::uint64_t kFuzzStream = 0xF0221;

struct FuzzCase {
  int packet_bytes = 700;
  std::uint64_t payload_seed = 1;
  int mcs = 20;
  double snr_db = 24.0;
  bool with_channel = true;
  int harq_max_tx = 1;
  arrange::Method arrange_method = arrange::Method::kApcm;
  /// Rail a burst of LLRs at full scale (and sign-flip another) in every
  /// transmission, through the pipeline's LLR fault points.
  bool llr_faults = false;
  /// Nonzero: decode this case's packet in one BatchRunner TTI next to
  /// 1-7 single-block UEs drawn from this seed (mixed_flows).
  std::uint64_t mixed_seed = 0;
  int num_workers = 1;
  std::uint64_t noise_seed = 99;
  std::uint16_t rnti = 0x1234;
  int cell_id = 1;
  std::uint32_t teid = 0xAB;
  /// OFDM geometry (PR 7): randomized so the SIMD FFT / convert kernels
  /// see every stage-count and tail shape, not just the 512/300/36 LTE
  /// default. Defaults match OfdmConfig for old-dump replay.
  int ofdm_nfft = 512;
  int ofdm_used_subcarriers = 300;
  int ofdm_cp_len = 36;
};

struct FlowResult {
  bool crc_ok = false;
  int transmissions = 0;
  std::vector<std::uint8_t> egress;

  bool operator==(const FlowResult&) const = default;
};

/// The case's flow first, then any extra mixed-K flows.
using TierResult = std::vector<FlowResult>;

std::vector<std::uint8_t> make_payload(const FuzzCase& c) {
  Xoshiro256 rng(c.payload_seed);
  std::vector<std::uint8_t> p(static_cast<std::size_t>(c.packet_bytes));
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.next());
  return p;
}

/// SNR band per modulation order (bits per symbol).
double draw_snr_db(int qm, Xoshiro256& rng) {
  // QPSK and 16QAM reach well past the SNRs where uncapped demapper LLRs
  // used to overflow the turbo metrics (modulation.h, kLlrMagnitudeCap),
  // so the saturated-LLR region stays covered. 64-QAM starts at 14 dB,
  // inside the waterfall: with one exact decode route the tiers must
  // agree on marginal blocks too. Dumps record snr_db itself, so older
  // reproducers replay unchanged.
  if (qm == 2) return 10.0 + rng.uniform() * 25.0;
  if (qm == 4) return 16.0 + rng.uniform() * 16.0;
  return 14.0 + rng.uniform() * 14.0;
}

/// One extra single-block UE of a mixed-K case.
struct MixedFlow {
  int packet_bytes = 0;
  std::uint64_t payload_seed = 0;
  int mcs = 0;
  double snr_db = 0;
  std::uint64_t noise_seed = 0;
};

/// The 1-7 extra UEs a nonzero mixed_seed stands for: random MCS and
/// size, each shrunk until its transport block is one code block.
std::vector<MixedFlow> mixed_flows(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<MixedFlow> flows(1 + rng.bounded(7));
  for (auto& f : flows) {
    f.mcs = 3 + static_cast<int>(rng.bounded(26));
    f.snr_db = draw_snr_db(mac::mcs_entry(f.mcs).modulation_bits, rng);
    f.packet_bytes = 20 + static_cast<int>(rng.bounded(700));
    while (true) {
      const int payload_bits =
          (f.packet_bytes + static_cast<int>(mac::kMacHeaderBytes)) * 8;
      const int tbs = mac::transport_block_bits(
          f.mcs, mac::prbs_for_payload(payload_bits, f.mcs, 100));
      if (tbs + 24 <= phy::kMaxCodeBlock) break;
      f.packet_bytes /= 2;
    }
    f.payload_seed = rng.next() | 1;
    f.noise_seed = rng.next();
  }
  return flows;
}

TierResult run_tier(const FuzzCase& c, IsaLevel isa,
                    const std::string& break_tier) {
  std::optional<fault::FaultInjector> faults;
  if (c.llr_faults) {
    fault::FaultPlan plan;
    plan.enable(fault::FaultPoint::kLlrSaturate, 1.0);
    plan.enable(fault::FaultPoint::kLlrSignFlip, 0.5);
    faults.emplace(plan, c.noise_seed ^ 0x5A7, nullptr);
  }
  pipeline::PipelineConfig cfg;
  cfg.mcs = c.mcs;
  cfg.max_prb = 100;
  cfg.snr_db = c.snr_db;
  cfg.isa = isa;
  cfg.arrange_method = c.arrange_method;
  cfg.fault = faults ? &*faults : nullptr;
  cfg.rnti = c.rnti;
  cfg.cell_id = c.cell_id;
  cfg.teid = c.teid;
  cfg.harq_max_tx = c.harq_max_tx;
  cfg.with_channel = c.with_channel;
  cfg.ofdm.nfft = c.ofdm_nfft;
  cfg.ofdm.used_subcarriers = c.ofdm_used_subcarriers;
  cfg.ofdm.cp_len = c.ofdm_cp_len;
  cfg.noise_seed = c.noise_seed;
  cfg.num_workers = c.num_workers;
  cfg.metrics = nullptr;
  std::vector<pipeline::PacketResult> results;
  if (c.mixed_seed == 0) {
    pipeline::UplinkPipeline ul(cfg);
    results.push_back(ul.send_packet(make_payload(c)));
  } else {
    std::vector<pipeline::PipelineConfig> cfgs = {cfg};
    std::vector<std::vector<std::uint8_t>> packets = {make_payload(c)};
    for (const MixedFlow& f : mixed_flows(c.mixed_seed)) {
      auto& fc = cfgs.emplace_back(cfg);
      fc.mcs = f.mcs;
      fc.snr_db = f.snr_db;
      fc.noise_seed = f.noise_seed;
      fc.rnti = static_cast<std::uint16_t>(c.rnti + cfgs.size() - 1);
      FuzzCase fcase;
      fcase.packet_bytes = f.packet_bytes;
      fcase.payload_seed = f.payload_seed;
      packets.push_back(make_payload(fcase));
    }
    pipeline::BatchRunner runner(pipeline::BatchRunner::Direction::kUplink,
                                 cfgs, c.num_workers);
    results = runner.run_tti(packets);
  }
  TierResult out;
  for (const auto& r : results) {
    out.push_back({r.crc_ok, r.transmissions, r.egress});
  }
  auto& egress = out.front().egress;
  if (!break_tier.empty() && break_tier == isa_name(isa) && !egress.empty()) {
    egress.front() ^= 0x01;  // simulated kernel bug on this tier
  }
  return out;
}

std::vector<IsaLevel> available_tiers() {
  std::vector<IsaLevel> tiers;
  for (int level = 0; level <= static_cast<int>(best_isa()); ++level) {
    tiers.push_back(static_cast<IsaLevel>(level));
  }
  return tiers;
}

/// Tiers that disagree with the lowest (scalar) tier.
std::vector<std::string> mismatching_tiers(const FuzzCase& c,
                                           const std::string& break_tier) {
  const auto tiers = available_tiers();
  std::vector<std::string> bad;
  TierResult reference;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const auto r = run_tier(c, tiers[i], break_tier);
    if (i == 0) {
      reference = r;
    } else if (!(r == reference)) {
      bad.push_back(isa_name(tiers[i]));
    }
  }
  return bad;
}

/// Shrink the failing case: try each simplification, keep it only if the
/// mismatch survives. Greedy and deterministic.
FuzzCase minimize(FuzzCase c, const std::string& break_tier) {
  const auto still_fails = [&](const FuzzCase& cand) {
    return !mismatching_tiers(cand, break_tier).empty();
  };
  if (c.harq_max_tx > 1) {
    FuzzCase cand = c;
    cand.harq_max_tx = 1;
    if (still_fails(cand)) c = cand;
  }
  if (c.with_channel) {
    FuzzCase cand = c;
    cand.with_channel = false;
    if (still_fails(cand)) c = cand;
  }
  if (c.num_workers > 1) {
    FuzzCase cand = c;
    cand.num_workers = 1;
    if (still_fails(cand)) c = cand;
  }
  if (c.mixed_seed != 0) {
    // If the mismatch survives without the extra UEs, mixed-K packing
    // is exonerated.
    FuzzCase cand = c;
    cand.mixed_seed = 0;
    if (still_fails(cand)) c = cand;
  }
  if (c.llr_faults) {
    FuzzCase cand = c;
    cand.llr_faults = false;
    if (still_fails(cand)) c = cand;
  }
  {
    // If the mismatch survives on the default 512/300/36 LTE geometry,
    // the OFDM SIMD kernels' odd-tail / stage-count handling is
    // exonerated and the reproducer is easier to cross-check against
    // the golden vectors.
    FuzzCase cand = c;
    cand.ofdm_nfft = 512;
    cand.ofdm_used_subcarriers = 300;
    cand.ofdm_cp_len = 36;
    if (still_fails(cand)) c = cand;
  }
  while (c.packet_bytes > 40) {
    FuzzCase cand = c;
    cand.packet_bytes = c.packet_bytes / 2;
    if (!still_fails(cand)) break;
    c = cand;
  }
  return c;
}

std::string to_json(const FuzzCase& c, std::uint64_t base_seed,
                    std::uint64_t iteration,
                    const std::vector<std::string>& bad_tiers,
                    const std::string& break_tier) {
  std::ostringstream os;
  os.precision(17);  // round-trip exact doubles so replays are bit-identical
  os << "{\n";
  os << "  \"base_seed\": " << base_seed << ",\n";
  os << "  \"iteration\": " << iteration << ",\n";
  os << "  \"packet_bytes\": " << c.packet_bytes << ",\n";
  os << "  \"payload_seed\": " << c.payload_seed << ",\n";
  os << "  \"mcs\": " << c.mcs << ",\n";
  os << "  \"snr_db\": " << c.snr_db << ",\n";
  os << "  \"with_channel\": " << (c.with_channel ? "true" : "false")
     << ",\n";
  os << "  \"harq_max_tx\": " << c.harq_max_tx << ",\n";
  os << "  \"arrange_method\": \""
     << (c.arrange_method == arrange::Method::kApcm ? "apcm" : "extract")
     << "\",\n";
  os << "  \"llr_faults\": " << (c.llr_faults ? "true" : "false") << ",\n";
  os << "  \"mixed_seed\": " << c.mixed_seed << ",\n";
  os << "  \"num_workers\": " << c.num_workers << ",\n";
  os << "  \"noise_seed\": " << c.noise_seed << ",\n";
  os << "  \"ofdm_nfft\": " << c.ofdm_nfft << ",\n";
  os << "  \"ofdm_used_subcarriers\": " << c.ofdm_used_subcarriers << ",\n";
  os << "  \"ofdm_cp_len\": " << c.ofdm_cp_len << ",\n";
  os << "  \"rnti\": " << c.rnti << ",\n";
  os << "  \"cell_id\": " << c.cell_id << ",\n";
  os << "  \"teid\": " << c.teid << ",\n";
  os << "  \"break_tier\": \"" << break_tier << "\",\n";
  os << "  \"mismatch_tiers\": [";
  for (std::size_t i = 0; i < bad_tiers.size(); ++i) {
    os << (i ? ", " : "") << '"' << bad_tiers[i] << '"';
  }
  os << "]\n}\n";
  return os.str();
}

/// Minimal scanner for the flat JSON this tool writes: finds "key" and
/// reads the following scalar token. Not a general JSON parser.
std::optional<std::string> json_field(const std::string& text,
                                      const std::string& key) {
  const auto pos = text.find('"' + key + '"');
  if (pos == std::string::npos) return std::nullopt;
  auto i = text.find(':', pos);
  if (i == std::string::npos) return std::nullopt;
  ++i;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i >= text.size()) return std::nullopt;
  if (text[i] == '"') {
    const auto end = text.find('"', i + 1);
    if (end == std::string::npos) return std::nullopt;
    return text.substr(i + 1, end - i - 1);
  }
  auto end = text.find_first_of(",\n}", i);
  if (end == std::string::npos) end = text.size();
  return text.substr(i, end - i);
}

std::optional<FuzzCase> parse_dump(const std::string& text,
                                   std::string& break_tier) {
  FuzzCase c;
  const auto need = [&](const char* key) -> std::optional<std::string> {
    auto v = json_field(text, key);
    if (!v.has_value()) std::fprintf(stderr, "missing field %s\n", key);
    return v;
  };
  const auto pb = need("packet_bytes"), ps = need("payload_seed"),
             mcs = need("mcs"), snr = need("snr_db"),
             wc = need("with_channel"), harq = need("harq_max_tx"),
             am = need("arrange_method"), nw = need("num_workers"),
             ns = need("noise_seed"), rnti = need("rnti"),
             cell = need("cell_id"), teid = need("teid");
  if (!pb || !ps || !mcs || !snr || !wc || !harq || !am || !nw || !ns ||
      !rnti || !cell || !teid) {
    return std::nullopt;
  }
  c.packet_bytes = std::stoi(*pb);
  c.payload_seed = std::stoull(*ps);
  c.mcs = std::stoi(*mcs);
  c.snr_db = std::stod(*snr);
  c.with_channel = *wc == "true";
  c.harq_max_tx = std::stoi(*harq);
  c.arrange_method =
      *am == "extract" ? arrange::Method::kExtract : arrange::Method::kApcm;
  c.num_workers = std::stoi(*nw);
  c.noise_seed = std::stoull(*ns);
  c.rnti = static_cast<std::uint16_t>(std::stoul(*rnti));
  c.cell_id = std::stoi(*cell);
  c.teid = static_cast<std::uint32_t>(std::stoul(*teid));
  // Dumps from before the single decode route also carry
  // "batch_decode"; it selects nothing any more, so they replay on the
  // one route. Absent in older dumps: no LLR faults, no extra UEs.
  if (const auto v = json_field(text, "llr_faults")) {
    c.llr_faults = *v == "true";
  }
  if (const auto v = json_field(text, "mixed_seed")) {
    c.mixed_seed = std::stoull(*v);
  }
  // Absent in dumps from before OFDM geometry was fuzzed; defaults
  // match OfdmConfig (the only geometry those dumps ever ran).
  if (const auto v = json_field(text, "ofdm_nfft")) c.ofdm_nfft = std::stoi(*v);
  if (const auto v = json_field(text, "ofdm_used_subcarriers")) {
    c.ofdm_used_subcarriers = std::stoi(*v);
  }
  if (const auto v = json_field(text, "ofdm_cp_len")) {
    c.ofdm_cp_len = std::stoi(*v);
  }
  if (const auto bt = json_field(text, "break_tier")) break_tier = *bt;
  return c;
}

/// Randomize one case. SNR bands track the modulation order
/// (draw_snr_db).
FuzzCase random_case(Xoshiro256& rng) {
  FuzzCase c;
  c.mcs = 3 + static_cast<int>(rng.bounded(26));  // 3..28
  c.snr_db = draw_snr_db(mac::mcs_entry(c.mcs).modulation_bits, rng);
  // Bound the packet so the TB fits 100 PRBs at this MCS.
  const int max_bytes = mac::transport_block_bits(c.mcs, 100) / 8 - 16;
  const int cap = std::min(1200, max_bytes);
  c.packet_bytes = 20 + static_cast<int>(rng.bounded(
                            static_cast<std::uint64_t>(cap - 20 + 1)));
  c.payload_seed = rng.next() | 1;
  c.with_channel = rng.uniform() < 0.8;
  c.harq_max_tx = 1 + static_cast<int>(rng.bounded(3));
  c.arrange_method =
      rng.coin() ? arrange::Method::kApcm : arrange::Method::kExtract;
  c.num_workers = rng.coin() ? 2 : 1;
  c.noise_seed = rng.next();
  // OFDM geometry: every power-of-two stage count from 7 to 10, used
  // subcarrier counts from nfft/4 up to the densest legal grid (odd
  // per-side halves included — those exercise the convert-kernel tails),
  // CP anywhere from absent to nfft/4. Kept at >= nfft/4 occupancy so a
  // max-size TB stays a bounded number of symbols per case.
  static constexpr int kNffts[] = {128, 256, 512, 1024};
  c.ofdm_nfft = kNffts[rng.bounded(4)];
  const int min_half = c.ofdm_nfft / 8;
  const int max_half = c.ofdm_nfft / 2 - 1;
  c.ofdm_used_subcarriers =
      2 * (min_half + static_cast<int>(rng.bounded(
                          static_cast<std::uint64_t>(max_half - min_half + 1))));
  c.ofdm_cp_len = static_cast<int>(
      rng.bounded(static_cast<std::uint64_t>(c.ofdm_nfft / 4 + 1)));
  c.rnti = static_cast<std::uint16_t>(1 + rng.bounded(0xFFFE));
  c.cell_id = static_cast<int>(rng.bounded(504));
  c.teid = static_cast<std::uint32_t>(rng.next());
  c.llr_faults = rng.bounded(8) == 0;
  return c;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: fuzz_differential [--iters N] [--seed S] [--dump-dir DIR]\n"
      "                         [--break-tier ISA] [--expect-mismatch]\n"
      "                         [--replay FILE] [--selftest] [--quiet]\n"
      "                         [--batched] [--smallk-bias PCT]\n"
      "  --batched: decode every case in one multi-UE TTI with 1-7 extra\n"
      "  single-block UEs of random size and MCS, so the scheduler packs\n"
      "  mixed-K lane groups, compared strictly across every tier.\n"
      "  --smallk-bias: percent of iterations reshaped into tiny\n"
      "  noiseless single-block transport blocks (<= 64 bytes), the\n"
      "  geometry that once broke the retired windowed wide tiers.\n"
      "  Default 10.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t iters = 500;
  std::uint64_t base_seed = seed_stream(kFuzzStream);
  std::string dump_dir = "fuzz_repro";
  std::string break_tier;
  std::string replay_file;
  bool expect_mismatch = false;
  bool selftest = false;
  bool quiet = false;
  bool batched = false;
  int smallk_bias = 10;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--iters") {
      const char* v = value();
      if (v == nullptr) return usage();
      iters = std::strtoull(v, nullptr, 0);
    } else if (arg == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage();
      base_seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--dump-dir") {
      const char* v = value();
      if (v == nullptr) return usage();
      dump_dir = v;
    } else if (arg == "--break-tier") {
      const char* v = value();
      if (v == nullptr) return usage();
      break_tier = v;
    } else if (arg == "--replay") {
      const char* v = value();
      if (v == nullptr) return usage();
      replay_file = v;
    } else if (arg == "--batched") {
      batched = true;
    } else if (arg == "--smallk-bias") {
      const char* v = value();
      if (v == nullptr) return usage();
      smallk_bias = std::atoi(v);
      if (smallk_bias < 0 || smallk_bias > 100) return usage();
    } else if (arg == "--expect-mismatch") {
      expect_mismatch = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage();
    }
  }

  const auto tiers = available_tiers();
  if (tiers.size() < 2) {
    std::fprintf(stderr,
                 "fuzz_differential: only one ISA tier available (%s); "
                 "nothing to compare\n",
                 isa_name(tiers.front()));
    return 0;  // vacuously clean — do not fail single-tier hosts
  }
  if (!quiet) {
    std::printf("tiers:");
    for (const auto t : tiers) std::printf(" %s", isa_name(t));
    std::printf("\n");
  }

  if (!replay_file.empty()) {
    std::ifstream in(replay_file);
    if (!in.good()) {
      std::fprintf(stderr, "cannot read %s\n", replay_file.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string dumped_break;
    const auto c = parse_dump(ss.str(), dumped_break);
    if (!c.has_value()) return 2;
    if (break_tier.empty()) break_tier = dumped_break;
    const auto bad = mismatching_tiers(*c, break_tier);
    if (bad.empty()) {
      std::printf("replay: all tiers agree (mismatch did not reproduce)\n");
      return 0;
    }
    std::printf("replay: mismatch reproduced on");
    for (const auto& t : bad) std::printf(" %s", t.c_str());
    std::printf("\n");
    return 1;
  }

  if (selftest) {
    // Break the top tier, expect detection + a dump that replays.
    break_tier = isa_name(tiers.back());
    expect_mismatch = true;
    if (iters == 500) iters = 10;
    dump_dir = dump_dir + "/selftest";
  }

  Xoshiro256 seq(base_seed);
  std::uint64_t mismatches = 0;
  std::string last_dump;
  for (std::uint64_t it = 0; it < iters; ++it) {
    Xoshiro256 rng(splitmix64(base_seed ^ splitmix64(it)));
    (void)seq;
    auto c = random_case(rng);
    if (smallk_bias > 0 &&
        rng.bounded(100) < static_cast<std::uint64_t>(smallk_bias)) {
      // Reshape into the small-K corner: a tiny noiseless TB is one
      // short code block, the geometry that once broke the retired
      // windowed wide tiers. Drawn AFTER random_case so unbiased
      // iterations keep their case stream.
      c.packet_bytes = 16 + static_cast<int>(rng.bounded(49));  // 16..64
      c.mcs = 20 + static_cast<int>(rng.bounded(9));            // 20..28
      c.with_channel = false;
    }
    if (batched) c.mixed_seed = rng.next() | 1;
    const auto bad = mismatching_tiers(c, break_tier);
    if (bad.empty()) continue;
    ++mismatches;
    const auto min_case = minimize(c, break_tier);
    std::error_code ec;
    std::filesystem::create_directories(dump_dir, ec);
    const std::string path =
        dump_dir + "/repro_" + std::to_string(it) + ".json";
    std::ofstream out(path);
    out << to_json(min_case, base_seed, it,
                   mismatching_tiers(min_case, break_tier), break_tier);
    out.close();
    last_dump = path;
    std::fprintf(stderr, "iteration %llu: tiers disagree (%s) — dump: %s\n",
                 static_cast<unsigned long long>(it), bad.front().c_str(),
                 path.c_str());
    if (mismatches >= 5 && !expect_mismatch) break;  // enough evidence
  }

  if (!quiet || mismatches > 0) {
    std::printf("fuzz_differential: %llu/%llu iterations mismatched\n",
                static_cast<unsigned long long>(mismatches),
                static_cast<unsigned long long>(iters));
  }

  if (selftest) {
    if (mismatches == 0 || last_dump.empty()) {
      std::fprintf(stderr, "selftest: broken tier was NOT detected\n");
      return 1;
    }
    // The dump must replay: re-run it with the recorded broken tier.
    std::ifstream in(last_dump);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string dumped_break;
    const auto c = parse_dump(ss.str(), dumped_break);
    if (!c.has_value() || mismatching_tiers(*c, dumped_break).empty()) {
      std::fprintf(stderr, "selftest: dump %s did not reproduce\n",
                   last_dump.c_str());
      return 1;
    }
    std::printf("selftest: mismatch detected, dumped, and replayed OK\n");
    return 0;
  }
  if (expect_mismatch) return mismatches > 0 ? 0 : 1;
  return mismatches == 0 ? 0 : 1;
}
