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
//    decodes block i (and therefore which thread pays the construction
//    cost, and where the decoder's workspaces live) depends on work-
//    stealing order. Decoders here are cached per code-block *lane*
//    (block index): lane i always serves block i, so the set of decoder
//    constructions for a given traffic mix is identical on every run and
//    for every worker count — and after one warmup TTI per K the decode
//    path constructs nothing.
//  * Sharing: two blocks of the same K must not share one TurboDecoder
//    (its scratch members are per-call state); per-lane caches make the
//    no-sharing rule structural instead of accidental.
//
// Concurrency contract: all cache lookups and all arena carving happen
// on the driving thread, before the parallel region. Workers receive raw
// codec pointers and disjoint arena spans; they never touch the
// workspace itself. RateMatchers ARE shared across lanes — their decode-
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

#include "arrange/arrange.h"
#include "common/arena.h"
#include "common/cpu_features.h"
#include "phy/ratematch/rate_match.h"
#include "phy/turbo/turbo_batch.h"
#include "phy/turbo/turbo_decoder.h"
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

/// Behavioural dimensions selecting a distinct TurboDecoder: benches
/// comparing arrangement methods or ISA tiers must never share one.
struct DecoderSpec {
  arrange::Method arrange_method = arrange::Method::kApcm;
  IsaLevel isa = IsaLevel::kSse41;
  int max_iterations = 6;
  bool multi = false;  ///< multi-block TB: per-block CRC24B early stop
};

/// Per-K codec objects behind bounded LRU maps. Each map's capacity is
/// the number of distinct K (or decoder specs) kept warm; a traffic mix
/// over more distinct sizes than the capacity reconstructs on re-entry
/// (counted in evictions()) instead of growing without bound.
class CodecCache {
 public:
  explicit CodecCache(std::size_t capacity);

  phy::TurboEncoder& encoder(int k);
  phy::RateMatcher& matcher(int k);
  phy::TurboDecoder& decoder(int k, const DecoderSpec& spec);
  /// Batched-lane decoder (one code block per SIMD lane group); keyed
  /// without the arrangement method — batched decode consumes already-
  /// arranged streams, so the arrangement mechanism never touches it.
  phy::TurboBatchDecoder& batch_decoder(int k, const DecoderSpec& spec);

  struct Stats {
    std::size_t encoders = 0;
    std::size_t matchers = 0;
    std::size_t decoders = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

 private:
  using DecoderKey = std::tuple<int, int, int, int, bool>;
  /// k, isa, iters, multi
  using BatchKey = std::tuple<int, int, int, bool>;
  LruCodecMap<int, phy::TurboEncoder> encoders_;
  LruCodecMap<int, phy::RateMatcher> matchers_;
  LruCodecMap<DecoderKey, phy::TurboDecoder> decoders_;
  LruCodecMap<BatchKey, phy::TurboBatchDecoder> batch_decoders_;
};

/// Everything one pipeline's hot path owns: the per-TTI arena and the
/// codec caches (shared encoders/matchers + per-lane decoders).
class PipelineWorkspace {
 public:
  /// `codec_capacity` bounds each LRU map (shared and per-lane alike).
  explicit PipelineWorkspace(std::size_t codec_capacity);

  PipelineWorkspace(const PipelineWorkspace&) = delete;
  PipelineWorkspace& operator=(const PipelineWorkspace&) = delete;

  /// Per-TTI scratch arena. reset() once per packet, then carve.
  MonotonicArena& arena() { return arena_; }

  /// Shared cache: encoders (encode side) and rate matchers (shared
  /// across lanes; decode-side use is const).
  CodecCache& codecs() { return codecs_; }

  /// Decoder cache for code-block lane `lane` (grow-only; lanes are
  /// created on first touch and live as long as the workspace).
  CodecCache& lane(std::size_t lane);
  std::size_t lane_count() const { return lanes_.size(); }

  struct Stats {
    std::size_t arena_bytes_reserved = 0;
    std::size_t arena_bytes_used = 0;
    std::uint64_t arena_chunk_allocations = 0;
    std::uint64_t arena_resets = 0;
    std::size_t cached_encoders = 0;
    std::size_t cached_matchers = 0;
    std::size_t cached_decoders = 0;  ///< summed over shared + lanes
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
