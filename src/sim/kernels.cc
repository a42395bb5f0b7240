#include "sim/kernels.h"

#include <array>
#include <stdexcept>
#include <utility>

namespace vran::sim {

namespace {

using arrange::Method;
using arrange::Order;

int reg_bytes(IsaLevel isa) { return register_bits(isa) / 8; }

}  // namespace

int lanes_of(IsaLevel isa) { return register_bits(isa) / 16; }

Trace trace_arrange(Method method, IsaLevel isa, Order order,
                    std::size_t n_triples) {
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = 3 * n_triples * 2 * 2;  // src + three dst arrays
  const int L = lanes_of(isa);
  const std::size_t batches = n_triples / static_cast<std::size_t>(L);
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));

  if (method == Method::kExtract) {
    for (std::size_t b = 0; b < batches; ++b) {
      for (int r = 0; r < 3; ++r) {
        const std::int32_t ld = t.emit(UopClass::kLoad, -1, -1, rb);
        if (isa == IsaLevel::kSse41 || isa == IsaLevel::kScalar) {
          for (int e = 0; e < L; ++e) {
            t.emit(UopClass::kStoreNarrow, ld, -1, 2);  // pextrw-to-mem
          }
        } else if (isa == IsaLevel::kAvx2) {
          for (int e = 0; e < 8; ++e) t.emit(UopClass::kStoreNarrow, ld, -1, 2);
          const std::int32_t xt = t.emit(UopClass::kVecShuffle, ld);
          for (int e = 0; e < 8; ++e) t.emit(UopClass::kStoreNarrow, xt, -1, 2);
        } else {  // AVX-512, §5.2: extract low ymm, drain, reload, extract hi
          const std::int32_t lo = t.emit(UopClass::kVecShuffle, ld);
          for (int e = 0; e < 8; ++e) t.emit(UopClass::kStoreNarrow, lo, -1, 2);
          const std::int32_t lox = t.emit(UopClass::kVecShuffle, lo);
          for (int e = 0; e < 8; ++e)
            t.emit(UopClass::kStoreNarrow, lox, -1, 2);
          const std::int32_t rl = t.emit(UopClass::kLoad, -1, -1, rb);  // reload
          const std::int32_t hi = t.emit(UopClass::kVecShuffle, rl);
          for (int e = 0; e < 8; ++e) t.emit(UopClass::kStoreNarrow, hi, -1, 2);
          const std::int32_t hix = t.emit(UopClass::kVecShuffle, hi);
          for (int e = 0; e < 8; ++e)
            t.emit(UopClass::kStoreNarrow, hix, -1, 2);
        }
      }
    }
    return t;
  }

  if (method == Method::kApcm) {
    for (std::size_t b = 0; b < batches; ++b) {
      const std::int32_t r0 = t.emit(UopClass::kLoad, -1, -1, rb);
      const std::int32_t r1 = t.emit(UopClass::kLoad, -1, -1, rb);
      const std::int32_t r2 = t.emit(UopClass::kLoad, -1, -1, rb);
      const std::int32_t regs[3] = {r0, r1, r2};
      for (int cluster = 0; cluster < 3; ++cluster) {
        // 3 vpand + 2 vpor per congregated register (Fig. 10 steps 2-3).
        const std::int32_t a0 = t.emit(UopClass::kVecAlu, regs[0]);
        const std::int32_t a1 = t.emit(UopClass::kVecAlu, regs[1]);
        const std::int32_t a2 = t.emit(UopClass::kVecAlu, regs[2]);
        const std::int32_t o0 = t.emit(UopClass::kVecAlu, a0, a1);
        std::int32_t res = t.emit(UopClass::kVecAlu, o0, a2);
        // Alignment rotation (step 4) for YP1/YP2.
        if (cluster > 0) {
          if (isa == IsaLevel::kAvx2) {
            const std::int32_t sw = t.emit(UopClass::kVecShuffle, res);
            res = t.emit(UopClass::kVecShuffle, sw, res);
          } else {
            res = t.emit(UopClass::kVecShuffle, res);
          }
        }
        if (order == Order::kCanonical) {
          if (isa == IsaLevel::kAvx2) {
            const std::int32_t sw = t.emit(UopClass::kVecShuffle, res);
            const std::int32_t pa = t.emit(UopClass::kVecShuffle, res);
            const std::int32_t pb = t.emit(UopClass::kVecShuffle, sw);
            res = t.emit(UopClass::kVecAlu, pa, pb);
          } else {
            res = t.emit(UopClass::kVecShuffle, res);
          }
        }
        t.emit(UopClass::kStore, res, -1, rb);
      }
    }
    return t;
  }

  // Scalar: per element one load + one narrow store.
  for (std::size_t e = 0; e < 3 * n_triples; ++e) {
    const std::int32_t ld = t.emit(UopClass::kLoad, -1, -1, 2);
    t.emit(UopClass::kStoreNarrow, ld, -1, 2);
  }
  return t;
}

Trace trace_arrange_hypothetical(Method method, int bits,
                                 std::size_t n_triples) {
  if (bits < 128 || bits > 4096 || (bits % 128) != 0) {
    throw std::invalid_argument("trace_arrange_hypothetical: bad width");
  }
  Trace t;
  t.register_bits = bits;
  t.working_set_bytes = 3 * n_triples * 2 * 2;
  const int L = bits / 16;
  const std::size_t batches = n_triples / static_cast<std::size_t>(L);
  const std::uint16_t rb = static_cast<std::uint16_t>(bits / 8);

  if (method == Method::kExtract) {
    // Recursive halving down to a 128-bit lane (as vextracti32x8 does for
    // zmm): each halving level adds one shuffle per half and, beyond 256
    // bits, a reload of the source register (§5.2); each 128-bit leaf is
    // drained with 8 narrow stores.
    for (std::size_t b = 0; b < batches; ++b) {
      for (int r = 0; r < 3; ++r) {
        std::int32_t src = t.emit(UopClass::kLoad, -1, -1, rb);
        const int leaves = bits / 128;
        for (int leaf = 0; leaf < leaves; ++leaf) {
          // Reload before extracting every upper half (width > 256).
          if (leaf > 0 && bits > 256 && (leaf % 2) == 0) {
            src = t.emit(UopClass::kLoad, -1, -1, rb);
          }
          // log2(bits/128) extraction shuffles funnel one leaf down.
          std::int32_t cur = src;
          for (int w = bits; w > 128; w /= 2) {
            cur = t.emit(UopClass::kVecShuffle, cur);
          }
          for (int e = 0; e < 8; ++e) {
            t.emit(UopClass::kStoreNarrow, cur, -1, 2);
          }
        }
      }
    }
    return t;
  }

  // APCM: identical 17-op schedule at any width (gcd(L, 3) = 1 holds for
  // every power-of-two lane count).
  for (std::size_t b = 0; b < batches; ++b) {
    const std::int32_t r0 = t.emit(UopClass::kLoad, -1, -1, rb);
    const std::int32_t r1 = t.emit(UopClass::kLoad, -1, -1, rb);
    const std::int32_t r2 = t.emit(UopClass::kLoad, -1, -1, rb);
    const std::int32_t regs[3] = {r0, r1, r2};
    for (int cluster = 0; cluster < 3; ++cluster) {
      const std::int32_t a0 = t.emit(UopClass::kVecAlu, regs[0]);
      const std::int32_t a1 = t.emit(UopClass::kVecAlu, regs[1]);
      const std::int32_t a2 = t.emit(UopClass::kVecAlu, regs[2]);
      const std::int32_t o0 = t.emit(UopClass::kVecAlu, a0, a1);
      std::int32_t res = t.emit(UopClass::kVecAlu, o0, a2);
      if (cluster > 0) res = t.emit(UopClass::kVecShuffle, res);
      t.emit(UopClass::kStore, res, -1, rb);
    }
  }
  return t;
}

Trace trace_turbo_gamma(IsaLevel isa, int k) {
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = static_cast<std::size_t>(k) * 2 * 3;
  const int L = lanes_of(isa);
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));
  for (int i = 0; i < k; i += L) {
    const std::int32_t a = t.emit(UopClass::kLoad, -1, -1, rb);
    const std::int32_t b = t.emit(UopClass::kLoad, -1, -1, rb);
    const std::int32_t s = t.emit(UopClass::kVecAlu, a, b);  // paddsw
    t.emit(UopClass::kStore, s, -1, rb);
  }
  return t;
}

Trace trace_turbo_alpha_beta(IsaLevel isa, int k) {
  // One forward + one backward recursion. The state vector is one
  // 128-bit group; wider ISAs run k/NW steps over NW windows. Per step:
  // 2 broadcast loads, 2 mask ands, 1 add (g0/g1 build), 2 shuffles,
  // 2 adds, 1 max, 1 lane0 shuffle, 1 sub, 1 store — with the max->next
  // step loop-carried dependency that limits ILP.
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes =
      static_cast<std::size_t>(k) * 2 * (2 + static_cast<std::size_t>(8));
  const int nw = lanes_of(isa) / 8;
  const int steps = 2 * (k / nw);  // forward + backward
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));
  std::int32_t carried = t.emit(UopClass::kVecAlu);  // initial state vector
  for (int s = 0; s < steps; ++s) {
    const std::int32_t gs = t.emit(UopClass::kLoad, -1, -1, 2);
    const std::int32_t gp = t.emit(UopClass::kLoad, -1, -1, 2);
    const std::int32_t m0 = t.emit(UopClass::kVecAlu, gs);
    const std::int32_t m1 = t.emit(UopClass::kVecAlu, gp);
    const std::int32_t g0 = t.emit(UopClass::kVecAlu, m0, m1);
    const std::int32_t g1 = t.emit(UopClass::kVecAlu, m0, m1);
    const std::int32_t p0 = t.emit(UopClass::kVecShuffle, carried);
    const std::int32_t p1 = t.emit(UopClass::kVecShuffle, carried);
    const std::int32_t s0 = t.emit(UopClass::kVecAlu, p0, g0);  // paddsw
    const std::int32_t s1 = t.emit(UopClass::kVecAlu, p1, g1);
    const std::int32_t mx = t.emit(UopClass::kVecAlu, s0, s1);  // pmaxsw
    const std::int32_t bc = t.emit(UopClass::kVecShuffle, mx);
    carried = t.emit(UopClass::kVecAlu, mx, bc);  // psubsw (normalize)
    t.emit(UopClass::kStore, carried, -1, rb);
  }
  return t;
}

Trace trace_turbo_ext(IsaLevel isa, int k) {
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = static_cast<std::size_t>(k) * 2 * 10;
  const int nw = lanes_of(isa) / 8;
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));
  std::int32_t beta = t.emit(UopClass::kVecAlu);
  for (int s = 0; s < k / nw; ++s) {
    const std::int32_t a = t.emit(UopClass::kLoad, -1, -1, rb);  // alpha_k
    const std::int32_t gp = t.emit(UopClass::kLoad, -1, -1, 2);
    const std::int32_t q0 = t.emit(UopClass::kVecShuffle, beta);
    const std::int32_t q1 = t.emit(UopClass::kVecShuffle, beta);
    std::int32_t t0 = t.emit(UopClass::kVecAlu, a, q0);
    std::int32_t t1 = t.emit(UopClass::kVecAlu, a, q1);
    t0 = t.emit(UopClass::kVecAlu, t0, gp);
    t1 = t.emit(UopClass::kVecAlu, t1, gp);
    // Horizontal max trees (3 shuffle+max pairs each).
    for (int lvl = 0; lvl < 3; ++lvl) {
      const std::int32_t sh0 = t.emit(UopClass::kVecShuffle, t0);
      t0 = t.emit(UopClass::kVecAlu, t0, sh0);
      const std::int32_t sh1 = t.emit(UopClass::kVecShuffle, t1);
      t1 = t.emit(UopClass::kVecAlu, t1, sh1);
    }
    const std::int32_t ext = t.emit(UopClass::kVecAlu, t0, t1);  // psubsw
    for (int w = 0; w < nw; ++w) {
      t.emit(UopClass::kStoreNarrow, ext, -1, 2);  // per-window scatter
    }
    // Beta step (shares the chain structure).
    const std::int32_t b0 = t.emit(UopClass::kVecShuffle, beta);
    const std::int32_t b1 = t.emit(UopClass::kVecShuffle, beta);
    const std::int32_t c0 = t.emit(UopClass::kVecAlu, b0, gp);
    const std::int32_t c1 = t.emit(UopClass::kVecAlu, b1, gp);
    const std::int32_t mx = t.emit(UopClass::kVecAlu, c0, c1);
    const std::int32_t bc = t.emit(UopClass::kVecShuffle, mx);
    beta = t.emit(UopClass::kVecAlu, mx, bc);
  }
  return t;
}

Trace trace_turbo_ext_batch(IsaLevel isa, int k) {
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = static_cast<std::size_t>(k) * 2 * 10;
  const int nw = lanes_of(isa) / 8;
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));
  std::int32_t beta = t.emit(UopClass::kVecAlu);
  // Per branch, 4 steps' sums -> one register: unpacklo/hi_epi16 on two
  // pairs, unpacklo/hi_epi32 on the results, one 8-byte shift, 4 max.
  const auto reduce4 = [&t](const std::int32_t s[4]) {
    std::int32_t pair[2];
    for (int p = 0; p < 2; ++p) {
      const std::int32_t lo = t.emit(UopClass::kVecShuffle, s[2 * p],
                                     s[2 * p + 1]);
      const std::int32_t hi = t.emit(UopClass::kVecShuffle, s[2 * p],
                                     s[2 * p + 1]);
      pair[p] = t.emit(UopClass::kVecAlu, lo, hi);
    }
    const std::int32_t lo = t.emit(UopClass::kVecShuffle, pair[0], pair[1]);
    const std::int32_t hi = t.emit(UopClass::kVecShuffle, pair[0], pair[1]);
    const std::int32_t m = t.emit(UopClass::kVecAlu, lo, hi);
    const std::int32_t sh = t.emit(UopClass::kVecShuffle, m);
    return t.emit(UopClass::kVecAlu, m, sh);
  };
  for (int s0 = 0; s0 < k; s0 += 4) {
    std::int32_t t0[4];
    std::int32_t t1[4];
    for (int j = 0; j < 4; ++j) {
      const std::int32_t a = t.emit(UopClass::kLoad, -1, -1, rb);  // alpha_k
      const std::int32_t gp = t.emit(UopClass::kLoad, -1, -1, 2);
      const std::int32_t gs = t.emit(UopClass::kLoad, -1, -1, 2);
      const std::int32_t g0 = t.emit(UopClass::kVecAlu, gp);  // pand
      const std::int32_t g1 = t.emit(UopClass::kVecAlu, gp);
      const std::int32_t q0 = t.emit(UopClass::kVecShuffle, beta);
      const std::int32_t q1 = t.emit(UopClass::kVecShuffle, beta);
      t0[j] = t.emit(UopClass::kVecAlu, t.emit(UopClass::kVecAlu, a, q0), g0);
      t1[j] = t.emit(UopClass::kVecAlu, t.emit(UopClass::kVecAlu, a, q1), g1);
      // Beta step, sharing the successor shuffles.
      const std::int32_t b0 = t.emit(UopClass::kVecAlu, q0, g0);
      const std::int32_t b1 =
          t.emit(UopClass::kVecAlu, q1, t.emit(UopClass::kVecAlu, gs, g1));
      const std::int32_t mx = t.emit(UopClass::kVecAlu, b0, b1);
      const std::int32_t bc = t.emit(UopClass::kVecShuffle, mx);
      beta = t.emit(UopClass::kVecAlu, mx, bc);
    }
    const std::int32_t m0 = reduce4(t0);
    const std::int32_t m1 = reduce4(t1);
    std::int32_t ext = t.emit(UopClass::kVecAlu, m1, m0);  // psubsw
    // Step-major store: AVX2 merges its two groups with an extract and
    // an unpack, AVX-512 its four with one word permute.
    if (nw == 2) {
      ext = t.emit(UopClass::kVecShuffle, t.emit(UopClass::kVecShuffle, ext));
    } else if (nw == 4) {
      ext = t.emit(UopClass::kVecShuffle, ext);
    }
    t.emit(UopClass::kStore, ext, -1, static_cast<std::uint16_t>(8 * nw));
  }
  return t;
}

namespace {

void append(Trace& dst, const Trace& src) {
  const std::int32_t base = static_cast<std::int32_t>(dst.uops.size());
  for (Uop u : src.uops) {
    if (u.dep0 >= 0) u.dep0 += base;
    if (u.dep1 >= 0) u.dep1 += base;
    dst.uops.push_back(u);
  }
  dst.working_set_bytes = std::max(dst.working_set_bytes,
                                   src.working_set_bytes);
}

}  // namespace

Trace trace_turbo_decode(IsaLevel isa, int k, int iterations,
                         Method method) {
  Trace t;
  t.register_bits = register_bits(isa);
  append(t, trace_arrange(method, isa,
                          method == Method::kApcm ? Order::kCanonical
                                                  : Order::kCanonical,
                          static_cast<std::size_t>(k + 4)));
  for (int it = 0; it < iterations; ++it) {
    for (int half = 0; half < 2; ++half) {
      append(t, trace_turbo_gamma(isa, k));
      append(t, trace_turbo_alpha_beta(isa, k));
      append(t, trace_turbo_ext(isa, k));
    }
  }
  // Decode working set: alpha store dominates (one register per step).
  t.working_set_bytes = static_cast<std::size_t>(k) *
                            static_cast<std::size_t>(reg_bytes(isa)) +
                        static_cast<std::size_t>(k) * 2 * 6;
  return t;
}

Trace trace_turbo_decode_batch(IsaLevel isa, int k, int iterations) {
  // One code block per 8-state lane group: the gamma/alpha/beta/ext
  // recursions execute the full K trellis steps regardless of register
  // width (the windowed gamma and alpha/beta twins emit k'/nw steps, so
  // feed them k*nw to pin the step count at k), and the batch amortizes
  // that cost over nw blocks. The extrinsic twin is the batch kernel's
  // own, four steps per transpose tree and store. No arrangement twin
  // here: the batched decoder consumes pre-arranged streams and keeps
  // its state step-major.
  const int nw = lanes_of(isa) / 8;
  Trace t;
  t.register_bits = register_bits(isa);
  for (int it = 0; it < iterations; ++it) {
    for (int half = 0; half < 2; ++half) {
      append(t, trace_turbo_gamma(isa, k * nw));
      append(t, trace_turbo_alpha_beta(isa, k * nw));
      append(t, trace_turbo_ext_batch(isa, k));
    }
  }
  // Working set: the alpha spill keeps one full-width register per
  // trellis step, plus nw blocks' LLR/extrinsic streams.
  t.working_set_bytes = static_cast<std::size_t>(k) *
                            static_cast<std::size_t>(reg_bytes(isa)) +
                        static_cast<std::size_t>(nw) *
                            static_cast<std::size_t>(k) * 2 * 6;
  return t;
}

Trace trace_turbo_encode(int k) {
  // Byte-trellis twin of TurboEncoder::encode: per input byte and
  // constituent, one pack, an index add and two table loads (parity
  // byte, next state; the next-state load carries the loop), the
  // multiply spread of the parity byte and one 8-byte store. Encoder 1
  // packs eight contiguous bits with one load and a multiply; encoder
  // 2's pack gathers through the shared QPP table, an index load and a
  // byte load per bit shifted into the packed byte.
  Trace t;
  t.register_bits = 64;
  // Input and interleaver (2 B per bit), two parity streams, two tables.
  t.working_set_bytes = static_cast<std::size_t>(k) * 5 + 2 * 8 * 256;
  std::int32_t state[2] = {t.emit(UopClass::kScalarAlu),
                           t.emit(UopClass::kScalarAlu)};
  for (int j = 0; j < k / 8; ++j) {
    std::int32_t packed[2];
    const std::int32_t in = t.emit(UopClass::kLoad, -1, -1, 8);
    const std::int32_t masked = t.emit(UopClass::kScalarAlu, in);
    packed[0] = t.emit(UopClass::kScalarAlu,
                       t.emit(UopClass::kScalarAlu, masked));
    std::int32_t acc = -1;
    for (int b = 0; b < 8; ++b) {
      const std::int32_t idx = t.emit(UopClass::kLoad, -1, -1, 2);
      const std::int32_t bit = t.emit(UopClass::kLoad, idx, -1, 1);
      acc = t.emit(UopClass::kScalarAlu, t.emit(UopClass::kScalarAlu, bit),
                   acc);
    }
    packed[1] = acc;
    for (int c = 0; c < 2; ++c) {
      const std::int32_t at =
          t.emit(UopClass::kScalarAlu, state[c], packed[c]);
      std::int32_t w = t.emit(UopClass::kLoad, at, -1, 1);
      state[c] = t.emit(UopClass::kLoad, at, -1, 1);
      // spread8_msb_first: broadcast multiply, mask, add, shift, mask.
      for (int op = 0; op < 5; ++op) w = t.emit(UopClass::kScalarAlu, w);
      t.emit(UopClass::kStore, w, -1, 8);
    }
  }
  return t;
}

Trace trace_vec_elementwise(IsaLevel isa, std::size_t n_elems,
                            std::size_t working_set_bytes) {
  // paddsw/psubsw stream with the short loop-carried accumulation the
  // decoder's metric updates have (critical path 3 per 8-uop group),
  // which is what holds the paper's measured IPC at ~2.5-2.8 rather
  // than the 3-port ceiling.
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = working_set_bytes;
  const std::size_t L = static_cast<std::size_t>(lanes_of(isa));
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));
  std::int32_t carried = t.emit(UopClass::kVecAlu);
  for (std::size_t i = 0; i < n_elems; i += L) {
    const std::int32_t a = t.emit(UopClass::kLoad, -1, -1, rb);
    const std::int32_t x1 = t.emit(UopClass::kVecAlu, a, carried);
    const std::int32_t x2 = t.emit(UopClass::kVecAlu, x1, a);
    const std::int32_t y1 = t.emit(UopClass::kVecAlu, a);
    const std::int32_t y2 = t.emit(UopClass::kVecAlu, y1);
    const std::int32_t y3 = t.emit(UopClass::kVecAlu, a);
    const std::int32_t z = t.emit(UopClass::kVecAlu, x2, y2);
    carried = z;
    t.emit(UopClass::kStore, z, -1, rb);
    (void)y3;
  }
  return t;
}

Trace trace_vec_max_chain(IsaLevel isa, std::size_t n_elems,
                          std::size_t working_set_bytes) {
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = working_set_bytes;
  const std::size_t L = static_cast<std::size_t>(lanes_of(isa));
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));
  // pmaxsw with the decoder's two-deep loop-carried chain; alternating
  // groups carry one extra independent op, landing IPC near the paper's
  // measured ~2.2.
  std::int32_t acc = t.emit(UopClass::kVecAlu);
  bool extra = false;
  for (std::size_t i = 0; i < n_elems; i += L) {
    const std::int32_t a = t.emit(UopClass::kLoad, -1, -1, rb);
    const std::int32_t u = t.emit(UopClass::kVecAlu, a);
    if (extra) t.emit(UopClass::kVecAlu, a);
    const std::int32_t s = t.emit(UopClass::kVecAlu, u, acc);
    acc = t.emit(UopClass::kVecAlu, s, acc);  // loop-carried pmaxsw
    extra = !extra;
  }
  t.emit(UopClass::kStore, acc, -1, rb);
  return t;
}

Trace trace_vec_extract(IsaLevel isa, std::size_t n_elems,
                        std::size_t working_set_bytes) {
  Trace t = trace_arrange(Method::kExtract, isa, Order::kCanonical,
                          n_elems / 3);
  t.working_set_bytes = working_set_bytes;
  return t;
}

Trace trace_ofdm(int nfft, int symbols) {
  Trace t;
  t.register_bits = 64;
  t.working_set_bytes = static_cast<std::size_t>(nfft) * 8;
  int stages = 0;
  while ((1 << stages) < nfft) ++stages;
  for (int s = 0; s < symbols; ++s) {
    for (int st = 0; st < stages; ++st) {
      for (int b = 0; b < nfft / 2; ++b) {
        // One butterfly: two complex loads, complex multiply (4 mul +
        // 2 add), add/sub, two stores. Independent across butterflies.
        const std::int32_t u = t.emit(UopClass::kLoad, -1, -1, 8);
        const std::int32_t v = t.emit(UopClass::kLoad, -1, -1, 8);
        const std::int32_t m0 = t.emit(UopClass::kScalarAlu, v);
        const std::int32_t m1 = t.emit(UopClass::kScalarAlu, v);
        const std::int32_t mr = t.emit(UopClass::kScalarAlu, m0, m1);
        const std::int32_t mi = t.emit(UopClass::kScalarAlu, m0, m1);
        const std::int32_t o0 = t.emit(UopClass::kScalarAlu, u, mr);
        const std::int32_t o1 = t.emit(UopClass::kScalarAlu, u, mi);
        t.emit(UopClass::kStore, o0, -1, 8);
        t.emit(UopClass::kStore, o1, -1, 8);
      }
      // Loop bookkeeping branch per stage chunk.
      t.emit(UopClass::kBranch);
    }
  }
  return t;
}

namespace {

/// v = x * w with pre-split twiddles: mul, permute, mul, add. `wre` /
/// `wim` are the twiddle registers' producers (-1 when hoisted).
std::int32_t emit_cmul(Trace& t, std::int32_t x, std::int32_t wre,
                       std::int32_t wim) {
  const std::int32_t t1 = t.emit(UopClass::kVecAlu, x, wre);
  const std::int32_t xs = t.emit(UopClass::kVecShuffle, x);
  const std::int32_t t2 = t.emit(UopClass::kVecAlu, xs, wim);
  return t.emit(UopClass::kVecAlu, t1, t2);
}

/// One register of butterflies: u' = u + v, x' = u - v; updates u, x.
void emit_butterfly(Trace& t, std::int32_t& u, std::int32_t& x,
                    std::int32_t wre = -1, std::int32_t wim = -1) {
  const std::int32_t v = emit_cmul(t, x, wre, wim);
  x = t.emit(UopClass::kVecAlu, u, v);
  u = t.emit(UopClass::kVecAlu, u, v);
}

/// The inverse's 1/N multiply on a last-stage output.
std::int32_t emit_scaled(Trace& t, std::int32_t v, bool scale) {
  return scale ? t.emit(UopClass::kVecAlu, v) : v;
}

}  // namespace

Trace trace_ofdm(IsaLevel isa, int nfft, int symbols, bool inverse) {
  if (isa == IsaLevel::kScalar) return trace_ofdm(nfft, symbols);
  if (isa == IsaLevel::kAvx512 && nfft < 64) {  // below one 8 x 8 block
    return trace_ofdm(IsaLevel::kAvx2, nfft, symbols, inverse);
  }
  Trace t;
  t.register_bits =
      isa == IsaLevel::kAvx512 ? 512 : (isa == IsaLevel::kAvx2 ? 256 : 128);
  // Input symbol, output grid and one direction's split twiddles.
  t.working_set_bytes = static_cast<std::size_t>(nfft) * 8 * 4;
  const int w = t.register_bits / 64;  // complex floats per register
  const std::uint16_t rb = static_cast<std::uint16_t>(w * 8);
  const auto load = [&t, rb] { return t.emit(UopClass::kLoad, -1, -1, rb); };
  const auto store = [&t, rb](std::int32_t v) {
    t.emit(UopClass::kStore, v, -1, rb);
  };
  for (int s = 0; s < symbols; ++s) {
    int half = 1;
    if (isa == IsaLevel::kAvx512) {
      // Per 8 x 8 block: eight row loads in bit-reversed row order, the
      // stages h = 1, 2, 4 across registers (hoisted broadcast
      // twiddles), the 24-shuffle complex transpose, eight row stores.
      for (int b = 0; b < nfft / 64; ++b) {
        std::int32_t x[8];
        for (auto& r : x) r = load();
        for (int h = 1; h < 8; h <<= 1) {
          for (int j = 0; j < 8; ++j) {
            if ((j & h) == 0) emit_butterfly(t, x[j], x[j + h]);
          }
        }
        std::int32_t y[8];
        for (int j = 0; j < 8; j += 2) {  // unpacklo / unpackhi
          y[j] = t.emit(UopClass::kVecShuffle, x[j], x[j + 1]);
          y[j + 1] = t.emit(UopClass::kVecShuffle, x[j], x[j + 1]);
        }
        for (int q = 0; q < 8; q += 4) {  // two-source 128-bit permutes
          for (int j = 0; j < 2; ++j) {
            x[q + j] = t.emit(UopClass::kVecShuffle, y[q + j], y[q + j + 2]);
            x[q + j + 2] =
                t.emit(UopClass::kVecShuffle, y[q + j], y[q + j + 2]);
          }
        }
        for (int c = 0; c < 4; ++c) {  // 256-bit half shuffles
          store(t.emit(UopClass::kVecShuffle, x[c], x[c + 4]));
          store(t.emit(UopClass::kVecShuffle, x[c], x[c + 4]));
        }
      }
      half = 8;
      // Wide stages two at a time over blocks of 4h: four data and six
      // twiddle loads, four butterflies, four stores per iteration.
      for (; 4 * half <= nfft; half <<= 2) {
        const bool scale = inverse && 4 * half == nfft;
        for (int i = 0; i < nfft / (4 * w); ++i) {
          std::int32_t a = load(), b = load(), c = load(), d = load();
          const std::int32_t w1r = load(), w1i = load();
          emit_butterfly(t, a, b, w1r, w1i);
          emit_butterfly(t, c, d, w1r, w1i);
          const std::int32_t w2r = load(), w2i = load();
          emit_butterfly(t, a, c, w2r, w2i);
          const std::int32_t w3r = load(), w3i = load();
          emit_butterfly(t, b, d, w3r, w3i);
          for (const std::int32_t v : {a, b, c, d}) {
            store(emit_scaled(t, v, scale));
          }
        }
        t.emit(UopClass::kBranch);
      }
    } else {
      // Gather copy in bit-reversed order: one 8-byte load and store per
      // complex, a reversed-counter step per eight.
      std::int32_t ctr = t.emit(UopClass::kScalarAlu);
      for (int i = 0; i < nfft; ++i) {
        if (i % 8 == 0) {
          ctr = t.emit(UopClass::kScalarAlu, ctr);
          t.emit(UopClass::kBranch, ctr);
        }
        const std::int32_t v = t.emit(UopClass::kLoad, ctr, -1, 8);
        t.emit(UopClass::kStore, v, -1, 8);
      }
      // Stages whose group fits in one register: load, two group
      // permutes, the complex multiply, sign flip, add, store.
      for (; half < w && half < nfft; half <<= 1) {
        const bool scale = inverse && 2 * half == nfft;
        for (int b = 0; b < nfft / w; ++b) {
          const std::int32_t a = load();
          const std::int32_t pu = t.emit(UopClass::kVecShuffle, a);
          const std::int32_t px = t.emit(UopClass::kVecShuffle, a);
          const std::int32_t v = emit_cmul(t, px, -1, -1);
          const std::int32_t vn = t.emit(UopClass::kVecAlu, v);
          store(emit_scaled(t, t.emit(UopClass::kVecAlu, pu, vn), scale));
        }
        t.emit(UopClass::kBranch);
      }
    }
    // Remaining wide stages one at a time: twiddle / U / X loads, one
    // butterfly, two stores per register of butterflies.
    for (; half < nfft; half <<= 1) {
      const bool scale = inverse && 2 * half == nfft;
      for (int b = 0; b < nfft / (2 * w); ++b) {
        const std::int32_t wre = load(), wim = load();
        std::int32_t u = load(), x = load();
        emit_butterfly(t, u, x, wre, wim);
        store(emit_scaled(t, u, scale));
        store(emit_scaled(t, x, scale));
      }
      t.emit(UopClass::kBranch);
    }
  }
  return t;
}

namespace {

/// One word of the word-parallel Gold generator: both 31-bit registers
/// advance 28 bits with a few shift/xor ops each, plus the buffer
/// splice that hands out 32-bit words. Returns the word's producer.
std::int32_t emit_gold_word(Trace& t, std::int32_t& x1, std::int32_t& x2) {
  x1 = t.emit(UopClass::kScalarAlu, x1);
  x1 = t.emit(UopClass::kScalarAlu, x1);
  x2 = t.emit(UopClass::kScalarAlu, x2);
  x2 = t.emit(UopClass::kScalarAlu, x2);
  x2 = t.emit(UopClass::kScalarAlu, x2);
  const std::int32_t c = t.emit(UopClass::kScalarAlu, x1, x2);
  return t.emit(UopClass::kScalarAlu, c);
}

}  // namespace

Trace trace_scramble(IsaLevel isa, std::size_t n) {
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = n * 2;
  std::int32_t x1 = t.emit(UopClass::kScalarAlu);
  std::int32_t x2 = t.emit(UopClass::kScalarAlu);
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));
  // Registers (or, at kScalar, lanes) that one 32-bit word covers.
  const int per_word = isa == IsaLevel::kScalar ? 32 : 32 / lanes_of(isa);
  for (std::size_t i = 0; i < n; i += 32) {
    const std::int32_t w = emit_gold_word(t, x1, x2);
    for (int r = 0; r < per_word; ++r) {
      if (isa == IsaLevel::kScalar) {
        // Bit test, load, negate, select, narrow store.
        const std::int32_t bit = t.emit(UopClass::kScalarAlu, w);
        const std::int32_t v = t.emit(UopClass::kLoad, -1, -1, 2);
        const std::int32_t neg = t.emit(UopClass::kScalarAlu, v);
        const std::int32_t o = t.emit(UopClass::kScalarAlu, neg, bit);
        t.emit(UopClass::kStoreNarrow, o, -1, 2);
      } else if (isa == IsaLevel::kAvx512) {
        // kmov the word into a mask, one masked subs per register.
        const std::int32_t m = t.emit(UopClass::kVecShuffle, w);
        const std::int32_t v = t.emit(UopClass::kLoad, -1, -1, rb);
        const std::int32_t o = t.emit(UopClass::kVecAlu, v, m);
        t.emit(UopClass::kStore, o, -1, rb);
      } else {
        // Broadcast + and + cmpeq lane mask, then subs(v ^ m, m).
        const std::int32_t b = t.emit(UopClass::kVecShuffle, w);
        const std::int32_t a = t.emit(UopClass::kVecAlu, b);
        const std::int32_t m = t.emit(UopClass::kVecAlu, a);
        const std::int32_t v = t.emit(UopClass::kLoad, -1, -1, rb);
        const std::int32_t x = t.emit(UopClass::kVecAlu, v, m);
        const std::int32_t o = t.emit(UopClass::kVecAlu, x, m);
        t.emit(UopClass::kStore, o, -1, rb);
      }
    }
  }
  return t;
}

Trace trace_crc(std::size_t n_bits) {
  Trace t;
  t.register_bits = 64;
  t.working_set_bytes = n_bits + 1024;  // message + one byte table
  std::int32_t r = t.emit(UopClass::kScalarAlu);
  for (std::size_t i = 0; i < n_bits; i += 8) {
    // Pack: 64-bit load, and, multiply, shift.
    const std::int32_t v = t.emit(UopClass::kLoad, -1, -1, 8);
    const std::int32_t byte = t.emit(
        UopClass::kScalarAlu,
        t.emit(UopClass::kScalarAlu, t.emit(UopClass::kScalarAlu, v)));
    // Table step: the remainder chain runs through the lookup.
    const std::int32_t idx = t.emit(UopClass::kScalarAlu, r, byte);
    const std::int32_t e = t.emit(UopClass::kLoad, idx, -1, 4);
    const std::int32_t sh = t.emit(UopClass::kScalarAlu, r);
    r = t.emit(UopClass::kScalarAlu, t.emit(UopClass::kScalarAlu, sh, e));
  }
  return t;
}

Trace trace_demap(IsaLevel isa, std::size_t n_symbols) {
  constexpr int kBits = 3;          // 64QAM: 3 bits per axis
  constexpr int kLevels = 1 << kBits;
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = n_symbols * (4 + 2 * 2 * kBits);
  if (isa == IsaLevel::kScalar) {
    // axis_llrs per axis: 8 int64 distances feeding 2 x 3 running minima,
    // then per bit the double scale, clamp, lround and a narrow store.
    for (std::size_t s = 0; s < 2 * n_symbols; ++s) {
      const std::int32_t y = t.emit(UopClass::kLoad, -1, -1, 2);
      std::int32_t mins[2 * kBits];
      for (auto& m : mins) m = t.emit(UopClass::kScalarAlu);
      for (int g = 0; g < kLevels; ++g) {
        const std::int32_t diff = t.emit(UopClass::kScalarAlu, y);
        const std::int32_t d = t.emit(UopClass::kScalarAlu, diff);
        for (int j = 0; j < kBits; ++j) {
          auto& m = mins[2 * j + ((g >> (kBits - 1 - j)) & 1)];
          const std::int32_t c = t.emit(UopClass::kScalarAlu, m, d);
          m = t.emit(UopClass::kScalarAlu, c, d);
        }
      }
      for (int j = 0; j < kBits; ++j) {
        const std::int32_t sub = t.emit(UopClass::kScalarAlu, mins[2 * j],
                                        mins[2 * j + 1]);
        std::int32_t x = t.emit(UopClass::kVecAlu, sub);  // cvtsi2sd
        x = t.emit(UopClass::kVecAlu, x);                 // mul
        x = t.emit(UopClass::kVecAlu, x);                 // max
        x = t.emit(UopClass::kVecAlu, x);                 // min
        // std::lround is a libm call: classify, round, convert, return.
        t.emit(UopClass::kBranch);
        for (int c = 0; c < 10; ++c) x = t.emit(UopClass::kScalarAlu, x);
        t.emit(UopClass::kBranch);
        t.emit(UopClass::kStoreNarrow, x, -1, 2);
      }
    }
    return t;
  }
  // SIMD: one load of lanes/2 symbols, two unpacks; per half, 8 x
  // (pmaddwd + add) distances, 3 x 6 mins, and per bit the double
  // scale-and-round of two double registers; then 3 packs, the 3-way
  // interleave and 3 whole-register stores.
  const int L = lanes_of(isa);
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));
  const std::size_t block = static_cast<std::size_t>(L / 2);
  for (std::size_t s = 0; s + block <= n_symbols; s += block) {
    const std::int32_t v = t.emit(UopClass::kLoad, -1, -1, rb);
    std::int32_t llr[2][kBits];
    for (int h = 0; h < 2; ++h) {
      const std::int32_t half = t.emit(UopClass::kVecShuffle, v);
      std::int32_t e[kLevels];
      for (int g = 0; g < kLevels; ++g) {
        e[g] = t.emit(UopClass::kVecAlu,
                      t.emit(UopClass::kVecAlu, half));
      }
      for (int j = 0; j < kBits; ++j) {
        std::int32_t m[2] = {-1, -1};
        for (int g = 0; g < kLevels; ++g) {
          auto& mm = m[(g >> (kBits - 1 - j)) & 1];
          mm = mm < 0 ? e[g] : t.emit(UopClass::kVecAlu, mm, e[g]);
        }
        const std::int32_t diff = t.emit(UopClass::kVecAlu, m[0], m[1]);
        const std::int32_t hi = t.emit(UopClass::kVecShuffle, diff);
        std::int32_t r[2];
        for (int q = 0; q < 2; ++q) {
          std::int32_t x = t.emit(UopClass::kVecAlu, q ? hi : diff);  // cvt
          x = t.emit(UopClass::kVecAlu, x);                          // mul
          x = t.emit(UopClass::kVecAlu, x);                          // max
          x = t.emit(UopClass::kVecAlu, x);                          // min
          const std::int32_t tr = t.emit(UopClass::kVecAlu, x);      // trunc
          std::int32_t c = t.emit(UopClass::kVecAlu, x, tr);         // sub
          c = t.emit(UopClass::kVecAlu, c);                          // x2
          c = t.emit(UopClass::kVecAlu, c);                          // trunc
          r[q] = t.emit(UopClass::kVecAlu, t.emit(UopClass::kVecAlu, tr, c));
        }
        llr[h][j] = t.emit(UopClass::kVecShuffle, r[0], r[1]);
      }
    }
    std::int32_t pair[kBits];
    for (int j = 0; j < kBits; ++j) {
      pair[j] = t.emit(UopClass::kVecShuffle, llr[0][j], llr[1][j]);
    }
    for (int r = 0; r < kBits; ++r) {
      const std::int32_t a = t.emit(UopClass::kVecShuffle, pair[r]);
      const std::int32_t b =
          t.emit(UopClass::kVecShuffle, a, pair[(r + 1) % kBits]);
      t.emit(UopClass::kStore, b, -1, rb);
    }
  }
  return t;
}

namespace {

/// Sub-block geometry of a size-k block (rate_match.h): R rows, N nulls.
struct RmShape {
  int rows;
  int nulls;
};
RmShape rm_shape(int k) {
  const int d = k + 4;
  const int rows = (d + 31) / 32;
  return {rows, 32 * rows - d};
}

/// Rows a tier's blocks cover before handing the rest down: the
/// dispatcher's cascade from `isa` to SSE, `block(W)` rows per block.
template <class F>
int cascade_blocks(IsaLevel isa, int row, int row_end, int (*block)(int),
                   F&& emit_block) {
  for (IsaLevel t = isa; t >= IsaLevel::kSse41;
       t = static_cast<IsaLevel>(static_cast<int>(t) - 1)) {
    const int w = lanes_of(t) / 8;
    for (; row + block(w) <= row_end; row += block(w)) emit_block(t, w);
  }
  return row;
}

/// One in-lane transpose network (rm_kernels.h): n register loads and
/// log2(n) unpack stages. Returns the n output registers.
std::array<std::int32_t, 16> emit_transpose(Trace& t, int n,
                                            std::uint16_t bytes) {
  std::array<std::int32_t, 16> r{};
  for (int i = 0; i < n; ++i) r[i] = t.emit(UopClass::kLoad, -1, -1, bytes);
  for (int width = 1; width < n; width *= 2) {
    std::array<std::int32_t, 16> next{};
    for (int i = 0; i < n; ++i) {
      next[i] = t.emit(UopClass::kVecShuffle, r[i & ~1], r[i | 1]);
    }
    r = next;
  }
  return r;
}

}  // namespace

Trace trace_rate_dematch(IsaLevel isa, int k, std::size_t e) {
  const RmShape g = rm_shape(k);
  const std::size_t ncb = 96 * static_cast<std::size_t>(g.rows);
  const std::size_t usable = ncb - 3 * static_cast<std::size_t>(g.nulls);
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = 2 * (e + ncb + usable);  // llr, w, triples
  const std::uint16_t rb = static_cast<std::uint16_t>(reg_bytes(isa));

  // One combining step: two loads, add, clamp, store.
  const auto combine = [&t](UopClass alu, UopClass store,
                            std::uint16_t bytes) {
    const std::int32_t w = t.emit(UopClass::kLoad, -1, -1, bytes);
    const std::int32_t x = t.emit(UopClass::kLoad, -1, -1, bytes);
    const std::int32_t s = t.emit(alu, w, x);
    t.emit(store, t.emit(alu, s), -1, bytes);
  };
  // Run walk: 2N pieces per circle, each a vector body plus a tail
  // (masked at AVX-512, scalar on SSE / AVX2).
  const std::size_t pieces =
      (e * 2 * static_cast<std::size_t>(g.nulls)) / usable + 1;
  const std::size_t per_piece = e / pieces;
  const std::size_t L =
      isa == IsaLevel::kScalar ? 1 : static_cast<std::size_t>(lanes_of(isa));
  std::int32_t cursor = t.emit(UopClass::kScalarAlu);
  for (std::size_t p = 0; p < pieces; ++p) {
    cursor = t.emit(UopClass::kScalarAlu, cursor);  // piece bounds
    t.emit(UopClass::kScalarAlu, cursor);
    t.emit(UopClass::kBranch, cursor);
    if (isa == IsaLevel::kScalar) {
      for (std::size_t i = 0; i < per_piece; ++i) {
        combine(UopClass::kScalarAlu, UopClass::kStoreNarrow, 2);
      }
      continue;
    }
    for (std::size_t i = 0; i < per_piece / L; ++i) {
      combine(UopClass::kVecAlu, UopClass::kStore, rb);
    }
    if (isa == IsaLevel::kAvx512 && per_piece % L != 0) {
      combine(UopClass::kVecAlu, UopClass::kStore, rb);
    } else {
      for (std::size_t i = 0; i < per_piece % L; ++i) {
        combine(UopClass::kScalarAlu, UopClass::kStoreNarrow, 2);
      }
    }
  }

  // Triple extraction.
  const auto emit_block = [&t](IsaLevel tier, int w) {
    const std::uint16_t b = static_cast<std::uint16_t>(reg_bytes(tier));
    // v0: 4 groups of 8 columns (8x8 int16); pairs: 8 groups of 4
    // columns x 2 halves (4x4 int32); one 16-byte store per lane.
    for (const auto& [groups, n] : {std::pair{4, 8}, std::pair{16, 4}}) {
      for (int grp = 0; grp < groups; ++grp) {
        const auto r = emit_transpose(t, n, b);
        for (int i = 0; i < n; ++i) {
          for (int q = 0; q < w; ++q) t.emit(UopClass::kStore, r[i], -1, 16);
        }
      }
    }
    for (int step = 0; step < 32; ++step) {  // 3-way interleave
      const std::int32_t a = t.emit(UopClass::kLoad, -1, -1, b);
      std::int32_t x[2];
      for (auto& v : x) {
        const std::int32_t p = t.emit(UopClass::kLoad, -1, -1, b);
        const std::int32_t q = t.emit(UopClass::kLoad, -1, -1, b);
        v = t.emit(UopClass::kVecAlu, p, q);  // blend
      }
      if (tier == IsaLevel::kAvx512) {
        const std::int32_t m = t.emit(UopClass::kVecShuffle, x[0], x[1]);
        const std::int32_t srcs[3] = {x[0], m, x[1]};
        for (const auto s : srcs) {
          const std::int32_t o = t.emit(UopClass::kVecShuffle, a, s);
          t.emit(UopClass::kStore, t.emit(UopClass::kVecShuffle, o), -1, b);
        }
        continue;
      }
      if (tier == IsaLevel::kAvx2) {
        x[0] = t.emit(UopClass::kVecShuffle, x[0], x[1]);
        x[1] = t.emit(UopClass::kVecShuffle, x[0], x[1]);
      }
      for (int j = 0; j < 3; ++j) {
        const std::int32_t sa = t.emit(UopClass::kVecShuffle, a);
        const std::int32_t s0 = t.emit(UopClass::kVecShuffle, x[0]);
        const std::int32_t s1 = t.emit(UopClass::kVecShuffle, x[1]);
        std::int32_t o = t.emit(UopClass::kVecAlu,
                                t.emit(UopClass::kVecAlu, sa, s0), s1);
        if (tier == IsaLevel::kAvx2) o = t.emit(UopClass::kVecShuffle, o);
        t.emit(UopClass::kStore, o, -1, b);
      }
    }
  };
  int row = 0;
  if (isa != IsaLevel::kScalar) {
    row = cascade_blocks(isa, 0, g.rows, [](int w) { return 8 * w; },
                         emit_block);
  }
  // Scalar column loop: per slot three loads and three narrow stores.
  for (int slot = 32 * row; slot < 32 * g.rows; ++slot) {
    const std::int32_t y = t.emit(UopClass::kScalarAlu);
    for (int s = 0; s < 3; ++s) {
      const std::int32_t v = t.emit(UopClass::kLoad, -1, -1, 2);
      t.emit(UopClass::kStoreNarrow, v, y, 2);
    }
  }
  return t;
}

Trace trace_rate_match(IsaLevel isa, int k, std::size_t e) {
  const RmShape g = rm_shape(k);
  const std::size_t ncb = 96 * static_cast<std::size_t>(g.rows);
  const std::size_t usable = ncb - 3 * static_cast<std::size_t>(g.nulls);
  Trace t;
  t.register_bits = register_bits(isa);
  t.working_set_bytes = 2 * ncb + e;

  // Bit collection: rows 1 .. R-2 in 16 x 16 byte transposes.
  const auto emit_block = [&t](IsaLevel tier, int w) {
    const std::uint16_t b = static_cast<std::uint16_t>(reg_bytes(tier));
    const int halves = tier == IsaLevel::kSse41 ? 2 : 1;
    for (int h = 0; h < halves; ++h) {
      for (int s = 0; s < 3; ++s) {
        const auto r = emit_transpose(t, 16, b);
        // v0 stores its columns; v1 / v2 zip into pairs (2 unpacks,
        // twice the stores), counted on the v2 pass.
        const int stores = s == 0 ? 1 : s == 1 ? 0 : 2;
        for (const auto v : r) {
          const std::int32_t o =
              s == 2 ? t.emit(UopClass::kVecShuffle, v) : v;
          for (int i = 0; i < stores * w; ++i) {
            t.emit(UopClass::kStore, o, -1, 16);
          }
        }
      }
    }
  };
  int row = 1;
  if (isa != IsaLevel::kScalar) {
    row = cascade_blocks(isa, 1, g.rows - 1,
                         [](int w) { return w == 4 ? 32 : 16; }, emit_block);
  }
  const int scalar_rows = 1 + (g.rows - row);
  for (int slot = 0; slot < 32 * scalar_rows; ++slot) {
    const std::int32_t j = t.emit(UopClass::kScalarAlu);
    for (int s = 0; s < 3; ++s) {
      const std::int32_t v = t.emit(UopClass::kLoad, -1, -1, 1);
      t.emit(UopClass::kStoreNarrow, v, j, 1);
    }
  }

  // Run-by-run copy of e bytes (32-byte moves), 2N pieces per circle.
  const std::size_t pieces =
      (e * 2 * static_cast<std::size_t>(g.nulls)) / usable + 1;
  for (std::size_t p = 0; p < pieces; ++p) {
    t.emit(UopClass::kBranch, t.emit(UopClass::kScalarAlu));
  }
  for (std::size_t i = 0; i < e; i += 32) {
    t.emit(UopClass::kStore, t.emit(UopClass::kLoad, -1, -1, 32), -1, 32);
  }
  return t;
}

Trace trace_dci(int payload_bits) {
  Trace t;
  t.register_bits = 64;
  const int L = payload_bits + 16;
  t.working_set_bytes = static_cast<std::size_t>(L) * 64 * 2;
  for (int k = 0; k < L; ++k) {
    const std::int32_t bm = t.emit(UopClass::kLoad, -1, -1, 2);
    for (int s = 0; s < 64; s += 4) {
      // Add-compare-select over 4 states per inner chunk.
      const std::int32_t pm = t.emit(UopClass::kLoad, -1, -1, 4);
      const std::int32_t a0 = t.emit(UopClass::kScalarAlu, pm, bm);
      const std::int32_t a1 = t.emit(UopClass::kScalarAlu, pm, bm);
      const std::int32_t mx = t.emit(UopClass::kScalarAlu, a0, a1);
      t.emit(UopClass::kStoreNarrow, mx, -1, 1);
      t.emit(UopClass::kStore, mx, -1, 4);
    }
    t.emit(UopClass::kBranch);
  }
  return t;
}

}  // namespace vran::sim
