#include "phy/scramble/scrambler.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/bitio.h"
#include "common/saturate.h"
#include "phy/scramble/descramble_simd.h"

namespace vran::phy {

namespace {

constexpr int kNc = 1600;
constexpr int kWordBits = 28;  // new bits per register step
constexpr std::uint32_t kWordMask = (1u << kWordBits) - 1;

// Each register holds bits n..n+30 of its sequence at positions 0..30.
// Advancing by k <= 28 computes bits n+31..n+30+k in one go: bit n+31+i
// reads bits n+i..n+i+3, all of which are already in the register.

/// x1(n+31) = (x1(n+3) + x1(n)) mod 2, k bits at once.
constexpr std::uint32_t advance_x1(std::uint32_t x, int k) {
  const std::uint32_t fresh = ((x >> 3) ^ x) & ((1u << k) - 1);
  return (x >> k) | (fresh << (31 - k));
}

/// x2(n+31) = (x2(n+3) + x2(n+2) + x2(n+1) + x2(n)) mod 2, k bits at once.
constexpr std::uint32_t advance_x2(std::uint32_t x, int k) {
  const std::uint32_t fresh =
      ((x >> 3) ^ (x >> 2) ^ (x >> 1) ^ x) & ((1u << k) - 1);
  return (x >> k) | (fresh << (31 - k));
}

template <typename Step>
constexpr std::uint32_t skip_nc(std::uint32_t x, Step step) {
  for (int left = kNc; left > 0; left -= kWordBits) {
    x = step(x, left < kWordBits ? left : kWordBits);
  }
  return x;
}

/// x1 after the Nc warm-up from its fixed start 000...01.
constexpr std::uint32_t kX1AfterNc = skip_nc(1u, advance_x1);

/// The x2 warm-up is linear over GF(2): column b is the post-Nc state
/// reached from the single start bit b, and any c_init's state is the
/// XOR of the columns of its set bits.
constexpr std::array<std::uint32_t, 31> kX2Jump = [] {
  std::array<std::uint32_t, 31> cols{};
  for (int b = 0; b < 31; ++b) cols[b] = skip_nc(1u << b, advance_x2);
  return cols;
}();

constexpr std::uint32_t x2_after_nc(std::uint32_t c_init) {
  std::uint32_t x = 0;
  for (int b = 0; b < 31; ++b) {
    if ((c_init >> b) & 1u) x ^= kX2Jump[static_cast<std::size_t>(b)];
  }
  return x;
}

}  // namespace

GoldSequence::GoldSequence(std::uint32_t c_init)
    : x1_(kX1AfterNc), x2_(x2_after_nc(c_init)) {}

void GoldSequence::refill() {
  buf_ |= std::uint64_t{(x1_ ^ x2_) & kWordMask} << have_;
  have_ += kWordBits;
  x1_ = advance_x1(x1_, kWordBits);
  x2_ = advance_x2(x2_, kWordBits);
}

std::uint8_t GoldSequence::next() {
  if (have_ == 0) refill();
  const auto c = static_cast<std::uint8_t>(buf_ & 1u);
  buf_ >>= 1;
  --have_;
  return c;
}

std::uint32_t GoldSequence::next32() {
  while (have_ < 32) refill();
  const auto w = static_cast<std::uint32_t>(buf_);
  buf_ >>= 32;
  have_ -= 32;
  return w;
}

namespace {

/// bits[i] ^= the next bits.size() sequence bits of g, a 32-bit word at
/// a time spread over one-byte bits.
void xor_sequence(GoldSequence& g, std::span<std::uint8_t> bits) {
  std::size_t i = 0;
  for (; i + 32 <= bits.size(); i += 32) {
    const std::uint32_t w = g.next32();
    for (int b = 0; b < 4; ++b) {
      std::uint8_t* p = bits.data() + i + 8 * static_cast<std::size_t>(b);
      std::uint64_t v;
      std::memcpy(&v, p, sizeof(v));
      v ^= spread8_lsb_first(w >> (8 * b));
      std::memcpy(p, &v, sizeof(v));
    }
  }
  for (; i < bits.size(); ++i) bits[i] ^= g.next();
}

}  // namespace

void GoldSequence::generate(std::span<std::uint8_t> out) {
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  xor_sequence(*this, out);
}

std::vector<std::uint8_t> gold_sequence(std::uint32_t c_init, std::size_t n) {
  std::vector<std::uint8_t> seq(n);
  GoldSequence g(c_init);
  g.generate(seq);
  return seq;
}

std::uint32_t pusch_c_init(std::uint16_t rnti, int q, int ns, int cell_id) {
  return (static_cast<std::uint32_t>(rnti) << 14) |
         (static_cast<std::uint32_t>(q & 1) << 13) |
         (static_cast<std::uint32_t>((ns / 2) & 0xF) << 9) |
         static_cast<std::uint32_t>(cell_id & 0x1FF);
}

void scramble_bits(std::span<std::uint8_t> bits, std::uint32_t c_init) {
  GoldSequence g(c_init);
  xor_sequence(g, bits);
}

void descramble_llr(std::span<std::int16_t> llr, std::uint32_t c_init,
                    IsaLevel isa) {
  GoldSequence g(c_init);
  std::size_t done = 0;
  switch (std::min(isa, cpu_features().best())) {
    case IsaLevel::kAvx512:
      done = simd::descramble_avx512(llr.data(), llr.size(), g);
      break;
    case IsaLevel::kAvx2:
      done = simd::descramble_avx2(llr.data(), llr.size(), g);
      break;
    case IsaLevel::kSse41:
      done = simd::descramble_sse(llr.data(), llr.size(), g);
      break;
    case IsaLevel::kScalar:
      break;
  }
  // Scalar tier and every tier's tail: the same word stream, one lane at
  // a time.
  for (std::size_t i = done; i < llr.size(); i += 32) {
    const std::uint32_t w = g.next32();
    const std::size_t n = std::min<std::size_t>(32, llr.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      if ((w >> k) & 1u) llr[i + k] = sat_sub16(0, llr[i + k]);
    }
  }
}

}  // namespace vran::phy
