// Live-telemetry tests (obs/flight_recorder.h, obs/telemetry.h,
// DESIGN.md §8):
//   * FlightRecorder window mechanics: a miss freezes window_before + 1
//     + window_after records around it, flush() captures a truncated
//     aftermath, the rate limit / lifetime cap / occupied pending slot
//     all suppress (never block), and the postmortem JSON carries the
//     records plus a Chrome-trace slice;
//   * TelemetryPublisher: tick() renders a valid Prometheus exposition
//     and a "vran-telemetry-v1" JSON line with windowed deltas, and the
//     Unix-socket server answers "metrics"/"json"/"stream" requests;
//   * the deterministic fault-forced deadline miss: an injected
//     kTurboEarlyStopMiss plus an impossible TTI budget produces a
//     postmortem whose stage breakdown identifies turbo_decode as the
//     dominant stage — the acceptance check CI replays via
//     tools/telemetry_check --expect-stage.
//
// The publisher's lock-free sampling path itself is hammered in
// test_obs.cc (ObsLiveSample); these tests cover the layers above it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "net/pktgen.h"
#include "obs/flight_recorder.h"
#include "obs/telemetry.h"
#include "pipeline/multicell.h"

#if defined(__unix__) || defined(__APPLE__)
#define VRAN_TEST_SOCKETS 1
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define VRAN_TEST_SOCKETS 0
#endif

namespace vran {
namespace {

/// `name` under the test temp dir, suffixed with a per-process id, so
/// concurrent copies of this binary never share a socket or directory.
std::string unique_temp_path(const std::string& name) {
#if VRAN_TEST_SOCKETS
  const auto id = static_cast<long long>(::getpid());
#else
  const auto id = std::chrono::steady_clock::now().time_since_epoch().count();
#endif
  return ::testing::TempDir() + name + "_" + std::to_string(id);
}

// ------------------------------------------------------------ recorder --

obs::FlightRecorderConfig small_recorder(int before = 3, int after = 2) {
  obs::FlightRecorderConfig fc;
  fc.cell_id = 7;
  fc.budget_ns = 1000;
  fc.capacity = 32;
  fc.window_before = before;
  fc.window_after = after;
  fc.min_dump_interval_ms = 0;
  fc.max_dumps = 100;
  fc.stage_names[0] = "alpha";
  fc.stage_names[1] = "beta";
  return fc;
}

obs::TtiFlightRecord make_record(std::uint64_t seq, bool miss = false) {
  obs::TtiFlightRecord r;
  r.seq = seq;
  r.wall_ns = 10'000 * seq;
  r.tti_ns = miss ? 5000 : 500;
  r.packets = 1;
  r.miss = miss;
  r.stage_ns[0] = 100 * (seq + 1);
  r.stage_ns[1] = 10;
  return r;
}

TEST(FlightRecorder, FreezesWindowAroundMiss) {
  obs::FlightRecorder fr(small_recorder(/*before=*/3, /*after=*/2));
  obs::FlightRecorder::Postmortem pm;
  for (std::uint64_t s = 0; s < 10; ++s) fr.record(make_record(s));
  fr.record(make_record(10, /*miss=*/true));
  // Armed: nothing pending until the aftermath lands.
  EXPECT_FALSE(fr.take_pending(pm));
  fr.record(make_record(11));
  EXPECT_FALSE(fr.take_pending(pm));
  fr.record(make_record(12));

  ASSERT_TRUE(fr.take_pending(pm));
  EXPECT_EQ(pm.miss_seq, 10u);
  ASSERT_EQ(pm.window.size(), 6u);  // 3 before + miss + 2 after
  for (std::size_t i = 0; i < pm.window.size(); ++i) {
    EXPECT_EQ(pm.window[i].seq, 7 + i);
  }
  EXPECT_TRUE(pm.window[3].miss);

  const auto st = fr.stats();
  EXPECT_EQ(st.records, 13u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.frozen, 1u);
  EXPECT_EQ(st.suppressed, 0u);
}

TEST(FlightRecorder, MissStormStillFreezesAfterAftermath) {
  // Back-to-back misses: the aftermath must count every record, not just
  // clean ones, or the recorder would stay armed through the storm.
  obs::FlightRecorder fr(small_recorder(/*before=*/1, /*after=*/2));
  for (std::uint64_t s = 0; s < 4; ++s) {
    fr.record(make_record(s, /*miss=*/true));
  }
  obs::FlightRecorder::Postmortem pm;
  ASSERT_TRUE(fr.take_pending(pm));
  EXPECT_EQ(pm.miss_seq, 0u);  // the arming miss, not the storm's last
  EXPECT_EQ(pm.window.size(), 3u);
}

TEST(FlightRecorder, RateLimitSuppressesAndRecoveredMissFreezes) {
  auto fc = small_recorder(/*before=*/0, /*after=*/0);
  fc.min_dump_interval_ms = 3'600'000;  // effectively "once"
  obs::FlightRecorder fr(fc);

  fr.record(make_record(0, /*miss=*/true));  // after=0: freezes instantly
  obs::FlightRecorder::Postmortem pm;
  ASSERT_TRUE(fr.take_pending(pm));

  fr.record(make_record(1, /*miss=*/true));  // inside the interval
  EXPECT_FALSE(fr.take_pending(pm));
  const auto st = fr.stats();
  EXPECT_EQ(st.frozen, 1u);
  EXPECT_EQ(st.suppressed, 1u);
  EXPECT_EQ(st.misses, 2u);
}

TEST(FlightRecorder, MaxDumpsCapsLifetimeFreezes) {
  auto fc = small_recorder(/*before=*/0, /*after=*/0);
  fc.max_dumps = 1;
  obs::FlightRecorder fr(fc);
  obs::FlightRecorder::Postmortem pm;

  fr.record(make_record(0, /*miss=*/true));
  ASSERT_TRUE(fr.take_pending(pm));
  fr.record(make_record(1, /*miss=*/true));
  EXPECT_FALSE(fr.take_pending(pm));
  EXPECT_EQ(fr.stats().frozen, 1u);
  EXPECT_EQ(fr.stats().suppressed, 1u);
}

TEST(FlightRecorder, OccupiedPendingSlotDropsNewWindow) {
  obs::FlightRecorder fr(small_recorder(/*before=*/0, /*after=*/0));
  fr.record(make_record(0, /*miss=*/true));   // pending now occupied
  fr.record(make_record(1, /*miss=*/true));   // freeze attempt -> dropped
  EXPECT_EQ(fr.stats().suppressed, 1u);

  obs::FlightRecorder::Postmortem pm;
  ASSERT_TRUE(fr.take_pending(pm));
  EXPECT_EQ(pm.miss_seq, 0u);  // the first window survived intact
  EXPECT_FALSE(fr.take_pending(pm));
}

TEST(FlightRecorder, FlushCapturesTruncatedAftermath) {
  // A miss on the very last TTI: flush() (what CellShard::flush_flight
  // calls at teardown) must freeze the armed window with whatever
  // aftermath exists instead of losing it.
  obs::FlightRecorder fr(small_recorder(/*before=*/2, /*after=*/4));
  for (std::uint64_t s = 0; s < 5; ++s) fr.record(make_record(s));
  fr.record(make_record(5, /*miss=*/true));
  fr.record(make_record(6));  // only 1 of the 4 aftermath records arrives
  obs::FlightRecorder::Postmortem pm;
  EXPECT_FALSE(fr.take_pending(pm));

  fr.flush();
  ASSERT_TRUE(fr.take_pending(pm));
  EXPECT_EQ(pm.miss_seq, 5u);
  ASSERT_EQ(pm.window.size(), 4u);  // 2 before + miss + 1 truncated after
  EXPECT_EQ(pm.window.front().seq, 3u);
  EXPECT_EQ(pm.window.back().seq, 6u);
  // flush() on a disarmed recorder is a no-op.
  fr.flush();
  EXPECT_FALSE(fr.take_pending(pm));
}

TEST(FlightRecorder, PollAndDumpWritesPostmortemJson) {
  auto fc = small_recorder(/*before=*/1, /*after=*/0);
  fc.dir = unique_temp_path("vran_flight_dump");
  std::filesystem::create_directories(fc.dir);
  obs::FlightRecorder fr(fc);
  EXPECT_EQ(fr.poll_and_dump(), "");  // nothing pending yet

  fr.record(make_record(0));
  fr.record(make_record(1, /*miss=*/true));
  const std::string path = fr.poll_and_dump();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(fr.stats().dumps, 1u);
  EXPECT_EQ(fr.stats().dump_failures, 0u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"schema\":\"vran-postmortem-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"miss_seq\":1"), std::string::npos);
  EXPECT_NE(json.find("\"stages\":[\"alpha\",\"beta\"]"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("tti_1_MISS"), std::string::npos);
  std::filesystem::remove_all(fc.dir);
}

TEST(FlightRecorder, CapacityClampedToFitWindow) {
  // A ring smaller than the window would overwrite the "before" part
  // with its own aftermath; the ctor widens it instead.
  auto fc = small_recorder(/*before=*/6, /*after=*/4);
  fc.capacity = 2;
  obs::FlightRecorder fr(fc);
  EXPECT_GE(fr.config().capacity, 11u);

  for (std::uint64_t s = 0; s < 6; ++s) fr.record(make_record(s));
  fr.record(make_record(6, /*miss=*/true));
  for (std::uint64_t s = 7; s < 11; ++s) fr.record(make_record(s));
  obs::FlightRecorder::Postmortem pm;
  ASSERT_TRUE(fr.take_pending(pm));
  EXPECT_EQ(pm.window.size(), 11u);
  EXPECT_EQ(pm.window.front().seq, 0u);
}

// ----------------------------------------------------------- publisher --

TEST(TelemetryPublisher, TickRendersExpositionAndJsonWithDeltas) {
  obs::MetricsRegistry reg;
  auto& events = reg.counter("app.events");
  auto& depth = reg.gauge("app.depth");
  auto& lat = reg.histogram("app.lat_ns");

  obs::TelemetryPublisher pub(obs::TelemetryOptions{});  // no socket
  pub.add_source("cell0", &reg);
  EXPECT_EQ(pub.prometheus_text(), "");  // nothing before the first tick

  events.add(10);
  depth.set(3);
  lat.record(1000);
  lat.record(2000);
  pub.tick();

  const std::string prom = pub.prometheus_text();
  EXPECT_NE(prom.find("# TYPE vran_app_events counter"), std::string::npos);
  EXPECT_NE(prom.find("vran_app_events{source=\"cell0\"} 10"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE vran_app_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE vran_app_lat_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("vran_app_lat_ns{source=\"cell0\",quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("vran_app_lat_ns_count{source=\"cell0\"} 2"),
            std::string::npos);
  // The publisher samples itself as source "telemetry".
  EXPECT_NE(prom.find("vran_telemetry_ticks{source=\"telemetry\"} 1"),
            std::string::npos);

  // Second tick: deltas cover only the window between ticks.
  events.add(5);
  lat.record(4000);
  pub.tick();
  const std::string js = pub.json_line();
  EXPECT_NE(js.find("\"schema\":\"vran-telemetry-v1\""), std::string::npos);
  EXPECT_NE(js.find("\"tick\":2"), std::string::npos);
  EXPECT_NE(js.find("\"cell0\""), std::string::npos);
  // Cumulative counters carry the total, deltas the last window.
  EXPECT_NE(js.find("\"counters\":{\"app.events\":15}"), std::string::npos);
  EXPECT_NE(js.find("\"deltas\":{\"app.events\":5}"), std::string::npos);
  // Windowed histogram: exactly the one record since the last tick.
  EXPECT_NE(js.find("\"app.lat_ns\":{\"count\":1,\"sum\":4000"),
            std::string::npos);
  EXPECT_EQ(pub.ticks(), 2u);
}

#if VRAN_TEST_SOCKETS

std::string unix_request(const std::string& path, const char* req,
                         int want_lines) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return "";
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "";
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return "";
  }
  std::string out;
  if (::send(fd, req, std::strlen(req), 0) >= 0) {
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      out.append(chunk, static_cast<std::size_t>(n));
      // For "stream" stop once enough frames arrived (the publisher
      // holds the connection open); for one-shots read to EOF.
      if (want_lines > 0 &&
          std::count(out.begin(), out.end(), '\n') >= want_lines) {
        break;
      }
    }
  }
  ::close(fd);
  return out;
}

TEST(TelemetryPublisher, SocketServesMetricsJsonAndStream) {
  const std::string sock = unique_temp_path("vran_tel_test.sock");
  obs::MetricsRegistry reg;
  reg.counter("app.events").add(42);

  obs::TelemetryPublisher pub(obs::TelemetryOptions{sock, /*period_ms=*/5});
  pub.add_source("cell0", &reg);
  ASSERT_TRUE(pub.start());
  EXPECT_TRUE(pub.running());
  // The renderings exist only after the first tick; requests racing it
  // would read an empty cache.
  while (pub.ticks() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::string prom = unix_request(sock, "metrics\n", /*want_lines=*/0);
  EXPECT_NE(prom.find("# TYPE vran_app_events counter"), std::string::npos);
  EXPECT_NE(prom.find("vran_app_events{source=\"cell0\"} 42"),
            std::string::npos);

  const std::string js = unix_request(sock, "json\n", /*want_lines=*/0);
  EXPECT_NE(js.find("\"schema\":\"vran-telemetry-v1\""), std::string::npos);

  // An empty request line means "json".
  const std::string dflt = unix_request(sock, "\n", /*want_lines=*/0);
  EXPECT_NE(dflt.find("\"schema\":\"vran-telemetry-v1\""), std::string::npos);

  // "stream" keeps pushing one frame per tick; two frames prove it.
  const std::string stream = unix_request(sock, "stream\n", /*want_lines=*/2);
  EXPECT_GE(std::count(stream.begin(), stream.end(), '\n'), 2);
  EXPECT_NE(stream.find("vran-telemetry-v1"), std::string::npos);

  pub.stop();
  EXPECT_FALSE(pub.running());
  EXPECT_GE(pub.self_metrics().snapshot().counter("telemetry.clients"), 4u);
  EXPECT_FALSE(std::filesystem::exists(sock));  // stop() unlinks
}

TEST(TelemetryPublisher, StartFailsWhenSocketCannotBind) {
  const std::string sock =
      ::testing::TempDir() + "no_such_dir_vran/tel.sock";
  obs::TelemetryPublisher pub(obs::TelemetryOptions{sock, 5});
  EXPECT_FALSE(pub.start());
  EXPECT_FALSE(pub.running());
}

#endif  // VRAN_TEST_SOCKETS

// ------------------------------------------- fault-forced miss postmortem --

/// Shard with one flow, an injected turbo early-stop miss on every
/// block, and a 1us budget no real TTI can make: every TTI is a
/// deterministic deadline miss whose time is sunk in turbo decode.
pipeline::CellShardConfig missing_shard(fault::FaultInjector* inj) {
  pipeline::CellShardConfig sc;
  pipeline::PipelineConfig flow;
  flow.metrics = nullptr;
  flow.fault = inj;
  sc.flows = {flow};
  sc.buffer_bytes = 512;
  sc.tti_budget_ns = 1000;
  sc.degrade = false;  // keep every TTI at full quality (and undropped)
  obs::FlightRecorderConfig fc;
  fc.capacity = 32;
  fc.window_before = 2;
  fc.window_after = 1;
  fc.min_dump_interval_ms = 0;
  sc.flight = fc;
  return sc;
}

TEST(FlightPostmortem, FaultForcedMissIdentifiesTurboDecode) {
  fault::FaultPlan plan;
  plan.enable(fault::FaultPoint::kTurboEarlyStopMiss, 1.0);
  obs::MetricsRegistry fault_reg;
  fault::FaultInjector inj(plan, /*seed=*/1, &fault_reg);

  pipeline::CellShard shard(missing_shard(&inj));
  ASSERT_NE(shard.flight(), nullptr);

  net::FlowConfig fc;
  fc.packet_bytes = 200;
  net::PacketGenerator gen(fc);
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(shard.offer(0, gen.next()));
    ASSERT_TRUE(shard.try_claim());
    ASSERT_TRUE(shard.run_tti());
    shard.release();
    shard.recycle();
  }
  shard.flush_flight();

  obs::FlightRecorder::Postmortem pm;
  ASSERT_TRUE(shard.flight()->take_pending(pm));
  EXPECT_EQ(pm.miss_seq, 0u);  // the very first TTI missed
  ASSERT_FALSE(pm.window.empty());

  // The miss record is in the window and flagged.
  bool has_miss = false;
  for (const auto& r : pm.window) {
    if (r.seq == pm.miss_seq) {
      EXPECT_TRUE(r.miss);
      has_miss = true;
    }
  }
  EXPECT_TRUE(has_miss);

  // Stage attribution: turbo_decode (burning its full iteration budget
  // thanks to the injected early-stop miss) dominates the window.
  const auto& names = shard.flight()->config().stage_names;
  int turbo_slot = -1;
  for (int s = 0; s < obs::kFlightStages; ++s) {
    if (names[static_cast<std::size_t>(s)] != nullptr &&
        std::strcmp(names[static_cast<std::size_t>(s)], "turbo_decode") == 0) {
      turbo_slot = s;
    }
  }
  ASSERT_GE(turbo_slot, 0);
  std::array<std::uint64_t, obs::kFlightStages> totals{};
  for (const auto& r : pm.window) {
    for (int s = 0; s < obs::kFlightStages; ++s) {
      totals[static_cast<std::size_t>(s)] += r.stage_ns[static_cast<std::size_t>(s)];
    }
  }
  EXPECT_GT(totals[static_cast<std::size_t>(turbo_slot)], 0u);
  for (int s = 0; s < obs::kFlightStages; ++s) {
    if (s == turbo_slot) continue;
    EXPECT_GE(totals[static_cast<std::size_t>(turbo_slot)],
              totals[static_cast<std::size_t>(s)])
        << "stage " << names[static_cast<std::size_t>(s)]
        << " outweighs turbo_decode in the miss window";
  }

  // The deadline books agree with the recorder.
  EXPECT_GT(shard.metrics().counter("cell.deadline_miss").value(), 0u);
  EXPECT_GT(shard.flight()->stats().misses, 0u);
}

TEST(FlightPostmortem, RunnerWritesPostmortemFileEndToEnd) {
  const std::string dir = unique_temp_path("vran_postmortems_e2e");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  fault::FaultPlan plan;
  plan.enable(fault::FaultPoint::kTurboEarlyStopMiss, 1.0);
  obs::MetricsRegistry fault_reg;
  fault::FaultInjector inj(plan, /*seed=*/1, &fault_reg);

  pipeline::MultiCellConfig mc;
  mc.cells = 1;
  mc.flows_per_cell = 1;
  mc.workers = 1;
  mc.steal = false;
  mc.degrade = false;
  mc.tti_budget_ns = 1000;  // impossible: every TTI misses
  mc.buffer_bytes = 512;
  mc.flow_template.metrics = nullptr;
  mc.flow_template.fault = &inj;
  mc.telemetry.enabled = true;    // sample-only: no socket
  mc.telemetry.period_ms = 10;
  mc.telemetry.postmortem_dir = dir;
  mc.telemetry.window_before = 2;
  mc.telemetry.window_after = 1;
  mc.telemetry.min_dump_interval_ms = 0;

  pipeline::MultiCellRunner runner(mc);
  runner.start();
  net::FlowConfig fc;
  fc.packet_bytes = 200;
  net::PacketGenerator gen(fc);
  for (int k = 0; k < 6; ++k) ASSERT_TRUE(runner.offer(0, 0, gen.next()));
  ASSERT_TRUE(runner.drain(/*timeout_ms=*/60000));
  runner.stop();

  ASSERT_NE(runner.telemetry(), nullptr);
  EXPECT_GE(runner.telemetry()->ticks(), 1u);
  // The publisher dumped at least one postmortem (the stopping tick
  // flushes-and-dumps even when the run ends before a periodic tick).
  EXPECT_GE(runner.telemetry()->self_metrics().snapshot().counter(
                "telemetry.postmortems"),
            1u);

  std::vector<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    files.push_back(e.path().string());
  }
  ASSERT_FALSE(files.empty());
  std::ifstream in(files.front());
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_NE(json.find("\"schema\":\"vran-postmortem-v1\""), std::string::npos);
  EXPECT_NE(json.find("turbo_decode"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace vran
