#include "phy/turbo/turbo_encoder.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>

#include "common/bitio.h"

namespace vran::phy {

RscStep rsc_step(int state, int u) {
  // State register (r1, r2, r3), r1 newest; state bit layout:
  // bit2 = r1, bit1 = r2, bit0 = r3.
  const int r1 = (state >> 2) & 1;
  const int r2 = (state >> 1) & 1;
  const int r3 = state & 1;
  const int fb = r2 ^ r3;       // g0 taps D^2, D^3
  const int a = (u & 1) ^ fb;   // recursive input
  const int parity = a ^ r1 ^ r3;  // g1 taps 1, D, D^3
  const int next = (a << 2) | (r1 << 1) | r2;
  return {next, parity};
}

namespace {

/// The RSC trellis stepped eight input bits at a time. For state s and
/// input byte v (first bit in the MSB), parity[s][v] holds the eight
/// parity bits (first in the MSB) and next[s][v] the state after them.
/// Both are composed from rsc_step, so the trellis is defined once.
struct ByteTrellis {
  std::array<std::array<std::uint8_t, 256>, kTurboStates> parity;
  std::array<std::array<std::uint8_t, 256>, kTurboStates> next;
};

ByteTrellis make_byte_trellis() {
  ByteTrellis t{};
  for (int s0 = 0; s0 < kTurboStates; ++s0) {
    for (int v = 0; v < 256; ++v) {
      int s = s0;
      int p = 0;
      for (int b = 7; b >= 0; --b) {
        const auto [ns, bit] = rsc_step(s, v >> b);
        p = (p << 1) | bit;
        s = ns;
      }
      const auto si = static_cast<std::size_t>(s0);
      const auto vi = static_cast<std::size_t>(v);
      t.parity[si][vi] = static_cast<std::uint8_t>(p);
      t.next[si][vi] = static_cast<std::uint8_t>(s);
    }
  }
  return t;
}

/// Termination record of one constituent: for the 3 tail steps, the
/// transmitted systematic bit x (= feedback) and parity z.
struct RscTail {
  std::uint8_t xt[3];
  std::uint8_t zt[3];
};

RscTail rsc_terminate(int state) {
  RscTail tail{};
  // Feed u = feedback so the register drains to zero.
  for (int t = 0; t < 3; ++t) {
    const int r2 = (state >> 1) & 1;
    const int r3 = state & 1;
    const int u = r2 ^ r3;  // makes a = 0
    const auto [ns, p] = rsc_step(state, u);
    tail.xt[t] = static_cast<std::uint8_t>(u);
    tail.zt[t] = static_cast<std::uint8_t>(p);
    state = ns;
  }
  if (state != 0) throw std::logic_error("RSC termination failed");
  return tail;
}

/// Write the eight parity bits of `p` (MSB first) one per byte.
void store_parity8(std::uint8_t* out, std::uint8_t p) {
  const std::uint64_t w = spread8_msb_first(p);
  std::memcpy(out, &w, sizeof(w));
}

}  // namespace

TurboEncoder::TurboEncoder(int k) : k_(k) {
  if (!qpp_size_valid(k)) {
    throw std::invalid_argument("TurboEncoder: illegal K " + std::to_string(k));
  }
}

TurboCodeword TurboEncoder::encode(std::span<const std::uint8_t> bits) const {
  const auto k = static_cast<std::size_t>(k_);
  if (bits.size() != k) {
    throw std::invalid_argument("turbo_encode: bits.size() != K");
  }
  static const ByteTrellis trellis = make_byte_trellis();
  // Every legal K is a multiple of 8, so both inputs are whole bytes.
  const auto pi = qpp_table(k_).pi;

  TurboCodeword cw;
  cw.d0.reserve(k + kTurboTail);
  cw.d0.assign(bits.begin(), bits.end());
  cw.d0.resize(k + kTurboTail);
  cw.d1.resize(k + kTurboTail);
  cw.d2.resize(k + kTurboTail);

  std::size_t s1 = 0;
  std::size_t s2 = 0;
  for (std::size_t j = 0; j < k; j += 8) {
    const std::uint8_t u1 = pack8_msb_first(bits.data() + j);
    // Encoder 2 reads the interleaved input c'[i] = c[pi(i)].
    unsigned u2 = 0;
#pragma GCC unroll 8
    for (std::size_t b = 0; b < 8; ++b) {
      u2 = (u2 << 1) | (bits[pi[j + b]] & 1u);
    }
    store_parity8(cw.d1.data() + j, trellis.parity[s1][u1]);
    store_parity8(cw.d2.data() + j, trellis.parity[s2][u2]);
    s1 = trellis.next[s1][u1];
    s2 = trellis.next[s2][u2];
  }
  const RscTail e1 = rsc_terminate(static_cast<int>(s1));
  const RscTail e2 = rsc_terminate(static_cast<int>(s2));

  // 36.212 §5.1.3.2.2 tail-bit multiplexing:
  //   d0: x_K     z_{K+1}  x'_K     z'_{K+1}
  //   d1: z_K     x_{K+2}  z'_K     x'_{K+2}
  //   d2: x_{K+1} z_{K+2}  x'_{K+1} z'_{K+2}
  const std::uint8_t t0[kTurboTail] = {e1.xt[0], e1.zt[1], e2.xt[0], e2.zt[1]};
  const std::uint8_t t1[kTurboTail] = {e1.zt[0], e1.xt[2], e2.zt[0], e2.xt[2]};
  const std::uint8_t t2[kTurboTail] = {e1.xt[1], e1.zt[2], e2.xt[1], e2.zt[2]};
  std::copy_n(t0, kTurboTail, cw.d0.begin() + k_);
  std::copy_n(t1, kTurboTail, cw.d1.begin() + k_);
  std::copy_n(t2, kTurboTail, cw.d2.begin() + k_);
  return cw;
}

TurboCodeword turbo_encode(std::span<const std::uint8_t> bits) {
  if (!qpp_size_valid(static_cast<int>(bits.size()))) {
    throw std::invalid_argument("turbo_encode: illegal block size");
  }
  const TurboEncoder enc(static_cast<int>(bits.size()));
  return enc.encode(bits);
}

}  // namespace vran::phy
