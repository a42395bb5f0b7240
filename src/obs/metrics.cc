#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>

namespace vran::obs {

int histogram_bucket(std::uint64_t value) {
  // bit_width(v) = floor(log2(v)) + 1, so values in [2^(b-1), 2^b) land
  // in bucket b and 0 lands in bucket 0.
  return static_cast<int>(std::bit_width(value));
}

std::uint64_t histogram_bucket_low(int b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

std::uint64_t histogram_bucket_high(int b) {
  if (b >= 64) return ~std::uint64_t{0};
  return std::uint64_t{1} << b;
}

int thread_shard() {
  static std::atomic<int> next{0};
  thread_local const int slot =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
  return total;
}

void Counter::reset() {
  for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

void Histogram::record(std::uint64_t value) {
  auto& s = shards_[static_cast<std::size_t>(thread_shard())];
  const auto b = static_cast<std::size_t>(histogram_bucket(value));
  // min/max first, then the bucket with release: a live sampler that
  // acquires this bucket count also sees the bounds covering it.
  std::uint64_t cur = s.min.load(std::memory_order_relaxed);
  while (value < cur &&
         !s.min.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  cur = s.max.load(std::memory_order_relaxed);
  while (value > cur &&
         !s.max.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
  s.buckets[b].fetch_add(1, std::memory_order_release);
  s.count.fetch_add(1, std::memory_order_relaxed);
  s.sum.fetch_add(value, std::memory_order_relaxed);
  // Publish: a live sampler that sees the epoch unchanged across its
  // shard read knows no record completed inside the read window.
  s.epoch.fetch_add(1, std::memory_order_release);
}

HistogramStats Histogram::fold(bool live) const {
  HistogramStats out;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t counted = 0;  ///< fold of the count fields
  for (const auto& s : shards_) {
    std::array<std::uint64_t, kHistogramBuckets> buckets{};
    std::uint64_t count = 0, sum = 0, shard_min = ~std::uint64_t{0},
                  shard_max = 0;
    // Bounded retry until the shard's epoch is quiet across the read.
    // Each field load is individually atomic either way; the retry only
    // shrinks the window for cross-field skew (a bucket counted but its
    // sum not yet added). After the retries run out the last read is
    // accepted — the sample stays monotone, merely slightly skewed.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t e0 = s.epoch.load(std::memory_order_acquire);
      for (int b = 0; b < kHistogramBuckets; ++b) {
        // Acquire pairs with record()'s release: min/max loaded below
        // cover every sample counted here.
        buckets[static_cast<std::size_t>(b)] =
            s.buckets[static_cast<std::size_t>(b)].load(
                std::memory_order_acquire);
      }
      count = s.count.load(std::memory_order_relaxed);
      sum = s.sum.load(std::memory_order_relaxed);
      shard_min = s.min.load(std::memory_order_relaxed);
      shard_max = s.max.load(std::memory_order_relaxed);
      if (!live || s.epoch.load(std::memory_order_acquire) == e0) break;
    }
    for (int b = 0; b < kHistogramBuckets; ++b) {
      out.buckets[static_cast<std::size_t>(b)] +=
          buckets[static_cast<std::size_t>(b)];
    }
    counted += count;
    out.sum += sum;
    min = std::min(min, shard_min);
    out.max = std::max(out.max, shard_max);
  }
  std::uint64_t bucket_total = 0;
  for (const auto b : out.buckets) bucket_total += b;
  if (live) {
    // Derive the total from the buckets themselves so quantiles over a
    // live sample are always internally consistent with the bucket
    // array, whatever the interleaving with writers was.
    out.count = bucket_total;
  } else {
    // Exactness contract: after writers join, the folded count and the
    // folded buckets agree. Tripping this assert means snapshot()/
    // stats() was called while writers were live — use sample().
    assert(counted == bucket_total &&
           "Histogram::stats() while writers run; use sample()");
    out.count = counted;
  }
  out.min = out.count ? min : 0;
  return out;
}

HistogramStats Histogram::stats() const { return fold(/*live=*/false); }

HistogramStats Histogram::sample() const { return fold(/*live=*/true); }

std::uint64_t Histogram::live_sum() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s.sum.load(std::memory_order_relaxed);
  }
  return total;
}

void Histogram::reset() {
  for (auto& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.count.store(0, std::memory_order_relaxed);
    s.sum.store(0, std::memory_order_relaxed);
    s.min.store(~std::uint64_t{0}, std::memory_order_relaxed);
    s.max.store(0, std::memory_order_relaxed);
    // The epoch itself is NOT reset — it is a publication tick, not a
    // value; bumping it tells in-flight samplers the shard moved.
    s.epoch.fetch_add(1, std::memory_order_release);
  }
}

void HistogramStats::merge(const HistogramStats& other) {
  if (other.count == 0) return;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    buckets[static_cast<std::size_t>(b)] +=
        other.buckets[static_cast<std::size_t>(b)];
  }
  min = count == 0 ? other.min : std::min(min, other.min);
  max = std::max(max, other.max);
  count += other.count;
  sum += other.sum;
}

double HistogramStats::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th sample, 1-based, then walk buckets to find it.
  const double rank = q * double(count - 1) + 1.0;
  std::uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t n = buckets[static_cast<std::size_t>(b)];
    if (n == 0) continue;
    if (double(seen + n) >= rank) {
      const double lo = double(histogram_bucket_low(b));
      const double hi = double(histogram_bucket_high(b));
      const double frac = (rank - double(seen)) / double(n);
      const double v = lo + frac * (hi - lo);
      return std::clamp(v, double(min), double(max));
    }
    seen += n;
  }
  return double(max);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Snapshot MetricsRegistry::fold(bool live) const {
  std::lock_guard<std::mutex> lk(mu_);
  Snapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(name, live ? h->sample() : h->stats());
  }
  return s;
}

Snapshot MetricsRegistry::snapshot() const { return fold(/*live=*/false); }

Snapshot MetricsRegistry::sample() const { return fold(/*live=*/true); }

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [name, c] : counters_) c->reset();
  for (const auto& [name, g] : gauges_) g->reset();
  for (const auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry r;
  return r;
}

Snapshot SampleCursor::advance(const MetricsRegistry& reg) {
  Snapshot cur = reg.sample();
  Snapshot delta;
  delta.gauges = cur.gauges;  // instantaneous: no meaningful difference
  delta.counters.reserve(cur.counters.size());
  for (const auto& [name, v] : cur.counters) {
    const std::uint64_t prev = prev_.counter(name);
    delta.counters.emplace_back(name, v >= prev ? v - prev : v);
  }
  delta.histograms.reserve(cur.histograms.size());
  for (const auto& [name, h] : cur.histograms) {
    const HistogramStats* prev = prev_.histogram(name);
    HistogramStats d;
    int lo = -1, hi = -1;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      const std::uint64_t cb = h.buckets[static_cast<std::size_t>(b)];
      const std::uint64_t pb =
          prev != nullptr ? prev->buckets[static_cast<std::size_t>(b)] : 0;
      const std::uint64_t db = cb >= pb ? cb - pb : cb;
      d.buckets[static_cast<std::size_t>(b)] = db;
      if (db != 0) {
        if (lo < 0) lo = b;
        hi = b;
      }
      d.count += db;
    }
    const std::uint64_t prev_sum = prev != nullptr ? prev->sum : 0;
    d.sum = h.sum >= prev_sum ? h.sum - prev_sum : h.sum;
    // min/max of the window are unknowable from cumulative extremes;
    // bound them by the populated delta buckets' edges so quantile()'s
    // clamp stays sound for the window.
    if (d.count > 0) {
      d.min = histogram_bucket_low(lo);
      const std::uint64_t high = histogram_bucket_high(hi);
      d.max = high == ~std::uint64_t{0} ? high : high - 1;
    }
    delta.histograms.emplace_back(name, d);
  }
  prev_ = std::move(cur);
  return delta;
}

const HistogramStats* Snapshot::histogram(std::string_view name) const {
  for (const auto& [n, h] : histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::uint64_t Snapshot::counter(std::string_view name) const {
  for (const auto& [n, c] : counters) {
    if (n == name) return c;
  }
  return 0;
}

namespace {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

void append_f(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

std::string Snapshot::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    append_json_escaped(out, name);
    out += "\":" + std::to_string(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    append_json_escaped(out, name);
    out += "\":" + std::to_string(v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    append_json_escaped(out, name);
    out += "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"min\":" + std::to_string(h.min) +
           ",\"max\":" + std::to_string(h.max) + ",\"mean\":";
    append_f(out, h.mean());
    out += ",\"p50\":";
    append_f(out, h.quantile(0.50));
    out += ",\"p90\":";
    append_f(out, h.quantile(0.90));
    out += ",\"p95\":";
    append_f(out, h.quantile(0.95));
    out += ",\"p99\":";
    append_f(out, h.quantile(0.99));
    out += ",\"buckets\":[";
    int last = kHistogramBuckets - 1;
    while (last > 0 && h.buckets[static_cast<std::size_t>(last)] == 0) --last;
    for (int b = 0; b <= last; ++b) {
      if (b) out.push_back(',');
      out += std::to_string(h.buckets[static_cast<std::size_t>(b)]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string Snapshot::to_csv() const {
  std::string out = "kind,name,count,sum,min,max,mean,p50,p95,p99\n";
  for (const auto& [name, v] : counters) {
    out += "counter," + name + "," + std::to_string(v) + ",,,,,,,\n";
  }
  for (const auto& [name, v] : gauges) {
    out += "gauge," + name + "," + std::to_string(v) + ",,,,,,,\n";
  }
  for (const auto& [name, h] : histograms) {
    out += "histogram," + name + "," + std::to_string(h.count) + "," +
           std::to_string(h.sum) + "," + std::to_string(h.min) + "," +
           std::to_string(h.max) + ",";
    append_f(out, h.mean());
    out.push_back(',');
    append_f(out, h.quantile(0.50));
    out.push_back(',');
    append_f(out, h.quantile(0.95));
    out.push_back(',');
    append_f(out, h.quantile(0.99));
    out.push_back('\n');
  }
  return out;
}

}  // namespace vran::obs
