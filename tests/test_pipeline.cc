// End-to-end pipeline integration tests: uplink and downlink loopback
// across MCS / SNR / packet-size / arrangement-method combinations.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "net/gtpu.h"
#include "net/pktgen.h"
#include "pipeline/pipeline.h"

namespace vran::pipeline {
namespace {

PipelineConfig base_config() {
  PipelineConfig cfg;
  cfg.isa = best_isa() >= IsaLevel::kSse41 ? IsaLevel::kSse41
                                           : IsaLevel::kScalar;
  cfg.snr_db = 25.0;
  return cfg;
}

std::vector<std::uint8_t> make_packet(int bytes, net::L4Proto proto) {
  net::FlowConfig fc;
  fc.packet_bytes = bytes;
  fc.proto = proto;
  net::PacketGenerator gen(fc);
  return gen.next();
}

TEST(Uplink, DeliversUdpPacketThroughGtpu) {
  UplinkPipeline ul(base_config());
  const auto pkt = make_packet(512, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  ASSERT_TRUE(res.delivered);
  EXPECT_TRUE(res.crc_ok);
  EXPECT_GT(res.latency_seconds, 0.0);

  const auto gtpu = net::gtpu_decapsulate(res.egress);
  ASSERT_TRUE(gtpu.has_value());
  EXPECT_EQ(gtpu->inner, pkt);
  EXPECT_GE(net::PacketGenerator::verify(gtpu->inner), 0);
}

TEST(Uplink, AllPacketSizes) {
  UplinkPipeline ul(base_config());
  for (int size : {64, 128, 256, 512, 1024, 1500}) {
    const auto pkt = make_packet(size, net::L4Proto::kUdp);
    const auto res = ul.send_packet(pkt);
    EXPECT_TRUE(res.delivered) << size;
  }
}

TEST(Uplink, TcpPacketsDeliver) {
  UplinkPipeline ul(base_config());
  const auto pkt = make_packet(1500, net::L4Proto::kTcp);
  const auto res = ul.send_packet(pkt);
  ASSERT_TRUE(res.delivered);
  const auto gtpu = net::gtpu_decapsulate(res.egress);
  ASSERT_TRUE(gtpu.has_value());
  EXPECT_EQ(gtpu->inner, pkt);
}

TEST(Uplink, LargePacketSegmentsIntoMultipleCodeBlocks) {
  auto cfg = base_config();
  cfg.mcs = 20;  // enough TBS headroom at 25 PRB
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(1500, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  EXPECT_TRUE(res.delivered);
  EXPECT_GE(res.code_blocks, 2u);
}

TEST(Uplink, ArrangementMethodsAllDeliver) {
  for (auto method : {arrange::Method::kScalar, arrange::Method::kExtract,
                      arrange::Method::kApcm}) {
    obs::MetricsRegistry reg;
    auto cfg = base_config();
    cfg.arrange_method = method;
    cfg.metrics = &reg;
    UplinkPipeline ul(cfg);
    const auto pkt = make_packet(1024, net::L4Proto::kUdp);
    const auto res = ul.send_packet(pkt);
    EXPECT_TRUE(res.delivered) << arrange::method_name(method);
    const auto snap = reg.snapshot();
    const auto* arrange = snap.histogram(stage_histogram_name(Stage::kArrange));
    ASSERT_NE(arrange, nullptr);
    EXPECT_GT(arrange->sum, 0u);
  }
}

TEST(Uplink, WiderIsaDelivers) {
  for (auto isa : {IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa > best_isa()) continue;
    auto cfg = base_config();
    cfg.isa = isa;
    UplinkPipeline ul(cfg);
    const auto pkt = make_packet(1500, net::L4Proto::kUdp);
    EXPECT_TRUE(ul.send_packet(pkt).delivered) << isa_name(isa);
  }
}

TEST(Uplink, VeryLowSnrFailsCrc) {
  auto cfg = base_config();
  cfg.snr_db = -10.0;
  cfg.max_turbo_iterations = 4;
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(512, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  EXPECT_FALSE(res.crc_ok);
  EXPECT_FALSE(res.delivered);
}

TEST(Uplink, NoChannelModeIsDeterministic) {
  auto cfg = base_config();
  cfg.with_channel = false;
  UplinkPipeline a(cfg), b(cfg);
  const auto pkt = make_packet(800, net::L4Proto::kUdp);
  const auto ra = a.send_packet(pkt);
  const auto rb = b.send_packet(pkt);
  ASSERT_TRUE(ra.delivered);
  ASSERT_TRUE(rb.delivered);
  EXPECT_EQ(ra.egress, rb.egress);
  EXPECT_EQ(ra.turbo_iterations, 1);  // noiseless: CRC passes first pass
}

TEST(Downlink, DeliversWithDciGrant) {
  DownlinkPipeline dl(base_config());
  const auto pkt = make_packet(1024, net::L4Proto::kUdp);
  const auto res = dl.send_packet(pkt);
  ASSERT_TRUE(res.delivered);
  EXPECT_EQ(res.egress, pkt);
}

TEST(Downlink, SequentialPacketsKeepDelivering) {
  DownlinkPipeline dl(base_config());
  net::FlowConfig fc;
  fc.packet_bytes = 700;
  net::PacketGenerator gen(fc);
  for (int i = 0; i < 8; ++i) {
    const auto res = dl.send_packet(gen.next());
    EXPECT_TRUE(res.delivered) << i;
    EXPECT_EQ(net::PacketGenerator::verify(res.egress), i);
  }
}

TEST(Pipeline, TimeDomainSnrCompensatesFftGain) {
  EXPECT_NEAR(time_domain_snr_db(10.0, 512), 10.0 + 10.0 * std::log10(512.0),
              1e-9);
}

TEST(Pipeline, ApcmAndExtractProduceIdenticalEgress) {
  auto cfg = base_config();
  cfg.with_channel = false;
  cfg.arrange_method = arrange::Method::kExtract;
  UplinkPipeline a(cfg);
  cfg.arrange_method = arrange::Method::kApcm;
  UplinkPipeline b(cfg);
  const auto pkt = make_packet(1500, net::L4Proto::kUdp);
  const auto ra = a.send_packet(pkt);
  const auto rb = b.send_packet(pkt);
  ASSERT_TRUE(ra.delivered);
  ASSERT_TRUE(rb.delivered);
  EXPECT_EQ(ra.egress, rb.egress);
}

}  // namespace
}  // namespace vran::pipeline

namespace vran::pipeline {
namespace {

// ---------------------------------------------------------------------------
// HARQ retransmission with soft combining.
// ---------------------------------------------------------------------------

TEST(Harq, RecoversAtSnrWhereSingleShotFails) {
  // Pick an SNR where one transmission reliably fails CRC; four
  // incremental-redundancy transmissions must pull the block through.
  auto cfg = base_config();
  cfg.snr_db = 11.5;
  cfg.mcs = 20;
  cfg.max_turbo_iterations = 6;

  cfg.harq_max_tx = 1;
  UplinkPipeline single(cfg);
  cfg.harq_max_tx = 4;
  UplinkPipeline harq(cfg);

  const auto pkt = make_packet(700, net::L4Proto::kUdp);
  int single_ok = 0, harq_ok = 0, harq_tx_total = 0;
  const int trials = 6;
  for (int i = 0; i < trials; ++i) {
    single_ok += single.send_packet(pkt).delivered ? 1 : 0;
    const auto res = harq.send_packet(pkt);
    harq_ok += res.delivered ? 1 : 0;
    harq_tx_total += res.transmissions;
  }
  EXPECT_LT(single_ok, trials);          // single shot struggles here
  EXPECT_EQ(harq_ok, trials);            // HARQ always delivers
  EXPECT_GT(harq_tx_total, trials);      // and actually retransmitted
}

TEST(Harq, CleanChannelUsesOneTransmission) {
  auto cfg = base_config();
  cfg.harq_max_tx = 4;
  cfg.snr_db = 25.0;
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(512, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  EXPECT_TRUE(res.delivered);
  EXPECT_EQ(res.transmissions, 1);
}

TEST(Harq, ExhaustedAttemptsReportFailure) {
  auto cfg = base_config();
  cfg.harq_max_tx = 2;
  cfg.snr_db = -5.0;  // hopeless channel
  cfg.max_turbo_iterations = 3;
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(256, net::L4Proto::kUdp);
  const auto res = ul.send_packet(pkt);
  EXPECT_FALSE(res.delivered);
  EXPECT_EQ(res.transmissions, 2);
}

TEST(Harq, PayloadIntactAfterRetransmissions) {
  auto cfg = base_config();
  cfg.snr_db = 11.5;
  cfg.harq_max_tx = 4;
  UplinkPipeline ul(cfg);
  const auto pkt = make_packet(900, net::L4Proto::kTcp);
  const auto res = ul.send_packet(pkt);
  ASSERT_TRUE(res.delivered);
  const auto gtpu = net::gtpu_decapsulate(res.egress);
  ASSERT_TRUE(gtpu.has_value());
  EXPECT_EQ(gtpu->inner, pkt);
}

// ---------------------------------------------------------------------------
// The stage table: one list of stages behind every timing consumer.
// ---------------------------------------------------------------------------

TEST(StageTable, KeysAndLabelsAreUniqueAndCoverEveryStage) {
  static_assert(kStages.size() == kStageCount);
  std::set<std::string> keys, labels;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const StageInfo& s = stage_info(static_cast<Stage>(i));
    ASSERT_NE(s.key, nullptr) << i;
    ASSERT_NE(s.label, nullptr) << i;
    keys.insert(s.key);
    labels.insert(s.label);
  }
  EXPECT_EQ(keys.size(), kStageCount);
  EXPECT_EQ(labels.size(), kStageCount);
  EXPECT_EQ(stage_histogram_name(Stage::kTurboDecode),
            "stage.turbo_decode_ns");
  EXPECT_EQ(stage_pmu_prefix(Stage::kArrange), "pmu.stage.arrange.");
}

/// Runs one packet into a private registry and checks that exactly the
/// stages other than `absent` recorded, and that stage_entries lists
/// them in table order under their labels.
template <typename Pipeline>
void expect_stages_recorded_except(Stage absent) {
  obs::MetricsRegistry reg;
  auto cfg = base_config();
  cfg.metrics = &reg;
  Pipeline p(cfg);
  ASSERT_TRUE(p.send_packet(make_packet(1500, net::L4Proto::kUdp)).delivered);
  const auto snap = reg.snapshot();
  std::vector<std::string> want;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto s = static_cast<Stage>(i);
    const auto* h = snap.histogram(stage_histogram_name(s));
    ASSERT_NE(h, nullptr) << stage_info(s).key;
    EXPECT_EQ(h->count > 0, s != absent) << stage_info(s).key;
    if (s != absent) want.emplace_back(stage_info(s).label);
  }
  const auto entries = stage_entries(snap);
  ASSERT_EQ(entries.size(), want.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].label, want[i]);
    EXPECT_GT(entries[i].seconds, 0.0) << entries[i].label;
  }
}

TEST(StageTable, UplinkRecordsEveryStageButDci) {
  expect_stages_recorded_except<UplinkPipeline>(Stage::kDci);
}

TEST(StageTable, DownlinkRecordsEveryStageButGtpu) {
  expect_stages_recorded_except<DownlinkPipeline>(Stage::kGtpu);
}

TEST(StageTable, TracedParallelPacketUsesOnlyTableSpanNames) {
  obs::TraceRecorder rec;
  auto cfg = base_config();
  cfg.metrics = nullptr;
  cfg.trace = &rec;
  cfg.num_workers = 4;
  UplinkPipeline ul(cfg);
  const auto res = ul.send_packet(make_packet(1500, net::L4Proto::kUdp));
  ASSERT_TRUE(res.delivered);
  ASSERT_GE(res.code_blocks, 2u);
  std::set<std::string> allowed{"packet"};
  for (const StageInfo& s : kStages) allowed.insert(s.key);
  std::set<std::string> seen;
  for (const auto& ev : rec.events()) {
    ASSERT_NE(ev.name, nullptr);
    EXPECT_EQ(allowed.count(ev.name), 1u) << ev.name;
    seen.insert(ev.name);
  }
  for (const Stage s : {Stage::kRateDematch, Stage::kArrange,
                        Stage::kTurboDecode, Stage::kDesegmentation}) {
    EXPECT_EQ(seen.count(stage_info(s).key), 1u) << stage_info(s).key;
  }
}

}  // namespace
}  // namespace vran::pipeline
