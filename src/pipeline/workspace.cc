#include "pipeline/workspace.h"

#include "phy/crc/crc.h"
#include "phy/segmentation/segmentation.h"
#include "phy/turbo/qpp_interleaver.h"

namespace vran::pipeline {

CodecCache::CodecCache(std::size_t capacity)
    : matchers_(capacity), batch_decoders_(capacity) {}

phy::RateMatcher& CodecCache::matcher(int k) {
  return matchers_.get(k,
                       [k] { return std::make_unique<phy::RateMatcher>(k); });
}

phy::TurboBatchDecoder& CodecCache::batch_decoder(const DecoderSpec& spec) {
  const BatchKey key{static_cast<int>(spec.isa), spec.max_iterations,
                     spec.multi};
  return batch_decoders_.get(key, [&spec] {
    phy::TurboBatchConfig bc;
    bc.max_iterations = spec.max_iterations;
    bc.crc = spec.multi ? phy::CrcType::k24B : phy::CrcType::k24A;
    bc.isa = spec.isa;
    return std::make_unique<phy::TurboBatchDecoder>(phy::kMaxCodeBlock, bc);
  });
}

CodecCache::Stats CodecCache::stats() const {
  Stats s;
  s.matchers = matchers_.size();
  s.decoders = batch_decoders_.size();
  s.evictions = matchers_.evictions() + batch_decoders_.evictions();
  return s;
}

PipelineWorkspace::PipelineWorkspace(std::size_t codec_capacity)
    : codec_capacity_(codec_capacity == 0 ? 1 : codec_capacity),
      codecs_(codec_capacity_) {
  // The shared QPP table of all 188 sizes is built by its first call
  // (about 1 ms); taking it here keeps that out of every TTI.
  (void)phy::qpp_table(phy::kMaxCodeBlock);
}

CodecCache& PipelineWorkspace::lane(std::size_t lane) {
  while (lanes_.size() <= lane) {
    lanes_.push_back(std::make_unique<CodecCache>(codec_capacity_));
  }
  return *lanes_[lane];
}

PipelineWorkspace::Stats PipelineWorkspace::stats() const {
  Stats s;
  s.arena_bytes_reserved = arena_.bytes_reserved();
  s.arena_bytes_used = arena_.bytes_used();
  s.arena_chunk_allocations = arena_.chunk_allocations();
  s.arena_resets = arena_.resets();
  const auto fold = [&s](const CodecCache::Stats& c) {
    s.cached_matchers += c.matchers;
    s.cached_decoders += c.decoders;
    s.codec_evictions += c.evictions;
  };
  fold(codecs_.stats());
  for (const auto& l : lanes_) fold(l->stats());
  return s;
}

}  // namespace vran::pipeline
