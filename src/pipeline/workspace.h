// Per-pipeline decode workspace: the per-TTI monotonic arena plus
// bounded-LRU codec caches.
//
// This replaces the old `static thread_local CodecCache` that lived in
// pipeline.cc. That cache had three problems the workspace fixes:
//
//  * Lifetime/accounting: thread_local caches outlive the pipeline and
//    are invisible to it — a bench sweeping many K values on a pool
//    thread grew decoder state forever with no owner to bound or even
//    observe it. The workspace is a pipeline member; its caches are
//    bounded LRU and its sizes/evictions are inspectable.
//  * Warmup determinism: with per-*thread* caches, which worker first
//    decodes a group (and therefore which thread pays the construction
//    cost, and where the decoder's workspaces live) depends on work-
//    stealing order. Decoders here are cached per decode-unit *slot*
//    (the scheduler's unit index): slot u always serves unit u, so the
//    set of decoder constructions for a given traffic mix is identical
//    on every run and for every worker count.
//  * Sharing: two concurrently decoded groups must not share one decoder
//    (its scratch members are per-call state); per-slot caches make the
//    no-sharing rule structural instead of accidental.
//
// Batch decoders are K-agnostic (sized once for K = 6144), so a slot
// holds one per decoder spec and a new block size constructs nothing.
// Encoders hold only K and are made on demand. Only rate matchers are
// still built and cached per K.
//
// Concurrency contract: all cache lookups and all arena carving happen
// on the driving thread, before the parallel region. Workers receive raw
// codec pointers and disjoint arena spans; they never touch the
// workspace itself. RateMatchers ARE shared across slots — their decode-
// side methods are const and stateless.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/cpu_features.h"
#include "phy/ratematch/rate_match.h"
#include "phy/turbo/turbo_batch.h"
#include "phy/turbo/turbo_encoder.h"

namespace vran::pipeline {

/// Bounded LRU of unique_ptr-held codec objects. Lookup is O(log n) in
/// the index map plus an O(1) recency splice; insertion at capacity
/// evicts the least recently used entry.
template <typename Key, typename Value>
class LruCodecMap {
 public:
  explicit LruCodecMap(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The cached value for `key`; on a miss, `make()` (returning
  /// std::unique_ptr<Value>) constructs it and the LRU entry is evicted
  /// if the map is over capacity.
  template <typename Make>
  Value& get(const Key& key, Make&& make) {
    if (auto it = index_.find(key); it != index_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return *it->second->second;
    }
    order_.emplace_front(key, make());
    index_[key] = order_.begin();
    if (index_.size() > capacity_) {
      auto last = std::prev(order_.end());
      index_.erase(last->first);
      order_.erase(last);
      ++evictions_;
    }
    return *order_.front().second;
  }

  std::size_t size() const { return index_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  using Entry = std::pair<Key, std::unique_ptr<Value>>;
  std::size_t capacity_;
  std::list<Entry> order_;  ///< front = most recently used
  std::map<Key, typename std::list<Entry>::iterator> index_;
  std::uint64_t evictions_ = 0;
};

/// Behavioural dimensions selecting a distinct batch decoder: groups of
/// different tiers, iteration caps or CRC policies never share one.
struct DecoderSpec {
  IsaLevel isa = IsaLevel::kSse41;
  int max_iterations = 6;
  bool multi = false;  ///< multi-block TB: per-block CRC24B early stop
};

/// Per-K rate matchers and per-spec batch decoders behind bounded LRU
/// maps. Each map's capacity is the number of distinct K (or decoder
/// specs) kept warm; a traffic mix over more distinct sizes than the
/// capacity reconstructs on re-entry (counted in evictions()) instead of
/// growing without bound.
class CodecCache {
 public:
  explicit CodecCache(std::size_t capacity);

  /// Encoders hold only K, so this caches nothing.
  phy::TurboEncoder encoder(int k) const { return phy::TurboEncoder(k); }
  phy::RateMatcher& matcher(int k);
  /// K-agnostic batched-lane decoder (one code block per SIMD lane
  /// group, any K up to 6144).
  phy::TurboBatchDecoder& batch_decoder(const DecoderSpec& spec);

  struct Stats {
    std::size_t matchers = 0;
    std::size_t decoders = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  /// isa, iters, multi
  using BatchKey = std::tuple<int, int, bool>;
  LruCodecMap<int, phy::RateMatcher> matchers_;
  LruCodecMap<BatchKey, phy::TurboBatchDecoder> batch_decoders_;
};

/// Everything one pipeline's hot path owns: the per-TTI arena and the
/// codec caches (shared matchers + per-slot decoders).
class PipelineWorkspace {
 public:
  /// `codec_capacity` bounds each LRU map (shared and per-slot alike).
  explicit PipelineWorkspace(std::size_t codec_capacity);

  PipelineWorkspace(const PipelineWorkspace&) = delete;
  PipelineWorkspace& operator=(const PipelineWorkspace&) = delete;

  /// Per-TTI scratch arena. reset() once per packet, then carve.
  MonotonicArena& arena() { return arena_; }

  /// Shared cache: rate matchers (shared across slots; decode-side use
  /// is const); its encoder() serves the encode side.
  CodecCache& codecs() { return codecs_; }

  /// Decoder cache for decode-unit slot `lane` (grow-only; slots are
  /// created on first touch and live as long as the workspace).
  CodecCache& lane(std::size_t lane);
  std::size_t lane_count() const { return lanes_.size(); }

  struct Stats {
    std::size_t arena_bytes_reserved = 0;
    std::size_t arena_bytes_used = 0;
    std::uint64_t arena_chunk_allocations = 0;
    std::uint64_t arena_resets = 0;
    std::size_t cached_matchers = 0;
    std::size_t cached_decoders = 0;  ///< summed over shared + slots
    std::uint64_t codec_evictions = 0;
  };
  Stats stats() const;

 private:
  std::size_t codec_capacity_;
  MonotonicArena arena_;
  CodecCache codecs_;
  std::vector<std::unique_ptr<CodecCache>> lanes_;
};

}  // namespace vran::pipeline
