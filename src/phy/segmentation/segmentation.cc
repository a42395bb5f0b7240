#include "phy/segmentation/segmentation.h"

#include <algorithm>
#include <stdexcept>

#include "phy/crc/crc.h"
#include "phy/turbo/qpp_interleaver.h"

namespace vran::phy {

int SegmentationPlan::payload_bits(int i) const {
  const int crc = (c > 1) ? 24 : 0;
  const int filler = (i == 0) ? f : 0;
  return block_size(i) - crc - filler;
}

SegmentationPlan make_segmentation_plan(int b) {
  if (b <= 0) throw std::invalid_argument("segmentation: b <= 0");
  SegmentationPlan p;
  p.b = b;

  const int z = kMaxCodeBlock;
  int l = 0;
  int b_prime = b;
  if (b <= z) {
    p.c = 1;
  } else {
    l = 24;
    p.c = (b + (z - l) - 1) / (z - l);
    b_prime = b + p.c * l;
  }

  if (p.c == 1) {
    p.k_plus = qpp_size_at_least(b_prime);
    p.c_plus = 1;
    p.k_minus = 0;
    p.c_minus = 0;
  } else {
    p.k_plus = qpp_size_at_least((b_prime + p.c - 1) / p.c);
    // Largest legal size strictly below k_plus.
    const auto sizes = qpp_block_sizes();
    int km = 0;
    for (const int k : sizes) {
      if (k < p.k_plus) km = k;
    }
    p.k_minus = km;
    if (km == 0) {
      p.c_minus = 0;
      p.c_plus = p.c;
    } else {
      const int dk = p.k_plus - p.k_minus;
      p.c_minus = (p.c * p.k_plus - b_prime) / dk;
      p.c_plus = p.c - p.c_minus;
    }
  }
  p.f = p.c_plus * p.k_plus + p.c_minus * p.k_minus - b_prime;
  return p;
}

std::vector<std::vector<std::uint8_t>> segment_bits(
    std::span<const std::uint8_t> bits, const SegmentationPlan& plan) {
  if (bits.size() != static_cast<std::size_t>(plan.b)) {
    throw std::invalid_argument("segment_bits: size != plan.b");
  }
  std::vector<std::vector<std::uint8_t>> blocks;
  blocks.reserve(static_cast<std::size_t>(plan.c));
  std::size_t at = 0;
  for (int i = 0; i < plan.c; ++i) {
    std::vector<std::uint8_t> blk;
    const int k = plan.block_size(i);
    blk.reserve(static_cast<std::size_t>(k));
    if (i == 0) blk.assign(static_cast<std::size_t>(plan.f), 0);
    const auto payload =
        bits.subspan(at, static_cast<std::size_t>(plan.payload_bits(i)));
    blk.insert(blk.end(), payload.begin(), payload.end());
    at += payload.size();
    if (plan.c > 1) crc_attach(blk, CrcType::k24B);
    if (blk.size() != static_cast<std::size_t>(k)) {
      throw std::logic_error("segment_bits: block size mismatch");
    }
    blocks.push_back(std::move(blk));
  }
  if (at != bits.size()) throw std::logic_error("segment_bits: leftover bits");
  return blocks;
}

bool desegment_bits(std::span<const std::span<const std::uint8_t>> blocks,
                    const SegmentationPlan& plan,
                    std::span<std::uint8_t> out) {
  if (blocks.size() != static_cast<std::size_t>(plan.c)) {
    throw std::invalid_argument("desegment_bits: block count mismatch");
  }
  if (out.size() != static_cast<std::size_t>(plan.b)) {
    throw std::invalid_argument("desegment_bits: output size mismatch");
  }
  bool ok = true;
  std::size_t at = 0;
  for (int i = 0; i < plan.c; ++i) {
    const auto blk = blocks[static_cast<std::size_t>(i)];
    const std::size_t skip = (i == 0) ? static_cast<std::size_t>(plan.f) : 0;
    const std::size_t take = static_cast<std::size_t>(plan.payload_bits(i));
    if (blk.size() != static_cast<std::size_t>(plan.block_size(i))) {
      // Truncated (or oversized) codeword: salvage what payload exists,
      // zero-fill the rest, and report failure — a CRC over the
      // best-effort output MUST NOT be trusted on its own.
      ok = false;
      const std::size_t have =
          blk.size() > skip ? std::min(blk.size() - skip, take) : 0;
      for (std::size_t j = 0; j < have; ++j) out[at + j] = blk[skip + j];
      for (std::size_t j = have; j < take; ++j) out[at + j] = 0;
      at += take;
      continue;
    }
    if (plan.c > 1 && !crc_check(blk, CrcType::k24B)) ok = false;
    std::copy_n(blk.data() + skip, take, out.data() + at);
    at += take;
  }
  return ok;
}

bool desegment_bits(const std::vector<std::vector<std::uint8_t>>& blocks,
                    const SegmentationPlan& plan,
                    std::vector<std::uint8_t>& out) {
  if (blocks.size() != static_cast<std::size_t>(plan.c)) {
    throw std::invalid_argument("desegment_bits: block count mismatch");
  }
  std::vector<std::span<const std::uint8_t>> views;
  views.reserve(blocks.size());
  for (const auto& b : blocks) views.emplace_back(b);
  out.assign(static_cast<std::size_t>(plan.b), 0);
  return desegment_bits(std::span<const std::span<const std::uint8_t>>(views),
                        plan, out);
}

}  // namespace vran::phy
