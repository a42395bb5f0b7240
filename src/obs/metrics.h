// Lightweight per-stage metrics: named counters, gauges, and fixed-bucket
// log2 histograms behind one registry.
//
// The paper's whole argument is measurement — per-module CPU shares
// (Figs. 3/4), stall breakdowns (Figs. 5/6), packet-latency distributions
// (Fig. 13) — so the pipeline needs more than flat per-stage sums: it
// needs distributions (p50/p95/p99), per-worker behavior, and counters
// that benches and examples can export without hand-rolling tables.
//
// Concurrency model: recording is lock-free. Every Counter/Histogram is
// split into cache-line-padded per-thread shards; a thread records into
// its own shard with atomics and never contends with other writers.
//
// Two-tier read model:
//
//   * snapshot() — EXACT, requires writers to have joined first (end of
//     a bench run, end of a TTI batch): a merge-after-join contract.
//     Debug builds assert it (a histogram whose folded count disagrees
//     with its folded bucket sum was snapshot mid-write); call sample()
//     instead if writers may still be running.
//   * sample() — LIVE, safe while writers run: every field is read with
//     an atomic load, so sampled values are monotone in time (counters
//     and histogram buckets only ever grow) and never torn. Histogram
//     totals are derived from the bucket array itself — count is the fold
//     of the sampled buckets, not the separate count field — so quantiles
//     computed from a live sample are always internally consistent.
//     record() publishes min/max before its bucket (release; the sampler
//     loads buckets with acquire), so a sampled count never gets ahead of
//     its min and max. Each histogram shard publishes an epoch that
//     record() bumps after its field updates; sample() retries a bounded
//     number of times until it sees a quiet epoch, which makes cross-
//     field skew (count vs sum) rare, though a sample is still not a
//     cross-metric atomic cut. Use SampleCursor to turn successive
//     sample() calls into non-negative deltas (windowed rates and
//     quantiles for live telemetry; see obs/telemetry.h).
//
// Registry lookups (counter()/histogram()/gauge()) take a mutex and
// return a stable reference; hot paths look up once and keep the pointer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vran::obs {

/// Number of per-thread shards per metric. Threads hash to a slot by a
/// process-wide thread index; more threads than shards just share slots
/// (still correct — the slots are atomic — merely contended).
inline constexpr int kShards = 16;

/// Buckets of the log2 histogram: bucket 0 holds value 0, bucket b >= 1
/// holds values in [2^(b-1), 2^b). 64-bit values fit in 65 buckets.
inline constexpr int kHistogramBuckets = 65;

/// Bucket index of a value (see kHistogramBuckets). Exposed so tests can
/// check the implementation against a scalar reference.
int histogram_bucket(std::uint64_t value);

/// Lower edge of bucket `b` (0 for b == 0, else 2^(b-1)).
std::uint64_t histogram_bucket_low(int b);
/// Exclusive upper edge of bucket `b` (1 for b == 0, else 2^b; saturates
/// at UINT64_MAX for the last bucket).
std::uint64_t histogram_bucket_high(int b);

/// Shard index of the calling thread (stable for the thread's lifetime).
int thread_shard();

/// Monotonically increasing event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[static_cast<std::size_t>(thread_shard())].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Shard, kShards> shards_;
};

/// Last-writer-wins instantaneous value (occupancy, queue depth).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Folded view of one histogram at snapshot time.
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  double mean() const { return count ? double(sum) / double(count) : 0.0; }
  /// Quantile estimate, q in [0, 1]: finds the bucket holding the q-th
  /// sample and interpolates linearly inside it, clamped to the observed
  /// [min, max]. Exact when all samples share a bucket; within one
  /// bucket's width (a factor of 2) otherwise.
  double quantile(double q) const;
  /// Fold another stats object into this one (bucket-wise).
  void merge(const HistogramStats& other);
};

/// Fixed-bucket log2 histogram of unsigned 64-bit samples (the pipeline
/// records nanoseconds). Recording is one fetch_add per field on the
/// caller's shard (release on the bucket, relaxed otherwise), plus one
/// release epoch bump that publishes the record to live samplers.
class Histogram {
 public:
  void record(std::uint64_t value);
  /// Exact fold — writers must have joined (debug-asserted; see the
  /// header comment's two-tier read model).
  HistogramStats stats() const;
  /// Live fold, safe while writers run: count derives from the sampled
  /// buckets (internally consistent quantiles), each shard read retries
  /// on epoch movement a bounded number of times. Monotone in time.
  HistogramStats sample() const;
  /// Live fold of the shard sums alone (one relaxed load per shard) —
  /// the cheap per-TTI stage-time delta read the flight recorder makes.
  std::uint64_t live_sum() const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~std::uint64_t{0}};
    std::atomic<std::uint64_t> max{0};
    /// Bumped (release) after every record's field updates — the
    /// publication tick sample() keys its bounded retry on.
    std::atomic<std::uint64_t> epoch{0};
  };
  HistogramStats fold(bool live) const;
  std::array<Shard, kShards> shards_;
};

/// Point-in-time fold of a whole registry, ready to export. Names are
/// sorted so exports are diffable.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;

  /// nullptr when `name` is absent.
  const HistogramStats* histogram(std::string_view name) const;
  std::uint64_t counter(std::string_view name) const;  ///< 0 when absent

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  /// max,mean,p50,p90,p95,p99,buckets:[...]}}} — buckets trimmed to the
  /// highest non-empty one.
  std::string to_json() const;
  /// One line per metric: kind,name,count,sum,min,max,mean,p50,p95,p99.
  std::string to_csv() const;
};

/// Named-metric registry. Metric objects live as long as the registry and
/// their addresses are stable, so hot paths resolve names once up front.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Exact point-in-time fold. Contract: concurrent writers have joined
  /// (debug-asserted per histogram). For a live read use sample().
  Snapshot snapshot() const;
  /// Live fold, safe while writers run (see the two-tier read model in
  /// the header comment): values are monotone lower bounds, histogram
  /// stats come from Histogram::sample(). The registry mutex held during
  /// the fold guards only the name maps — writers never take it on the
  /// record path, so sampling cannot stall them.
  Snapshot sample() const;

  /// Drop every metric. Invalidates previously returned references — not
  /// usable while a pipeline still holds resolved pointers; prefer
  /// `reset()` in that case.
  void clear();

  /// Zero every metric's values, keeping the objects (and the references
  /// hot paths hold) alive. Benches call this between warmup and
  /// measurement. Only exact once concurrent writers have joined.
  void reset();

  /// Process-wide default instance: the pipeline, thread pool, and net
  /// layers record here unless pointed elsewhere.
  static MetricsRegistry& global();

 private:
  Snapshot fold(bool live) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Turns successive live sample() calls into per-window deltas — the
/// telemetry publisher's read primitive. Counter deltas and histogram
/// bucket deltas are clamped non-negative (sample() is monotone, so a
/// clamp only ever absorbs a metric that was reset between samples);
/// gauges pass through as their current value (an instantaneous reading
/// has no meaningful difference). Delta histograms re-derive count from
/// the delta buckets and bound min/max by the populated buckets' edges,
/// so windowed quantiles stay internally consistent.
///
/// Not thread-safe: one cursor belongs to one sampling thread.
class SampleCursor {
 public:
  /// Live-sample `reg` and return the delta since the previous advance
  /// (first call: delta from zero, i.e. the cumulative sample).
  Snapshot advance(const MetricsRegistry& reg);
  /// The cumulative sample the last advance() was computed against.
  const Snapshot& cumulative() const { return prev_; }

 private:
  Snapshot prev_;
};

}  // namespace vran::obs
