#include "phy/modulation/modulation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/bitio.h"
#include "phy/modulation/demap_simd.h"

namespace vran::phy {

const char* modulation_name(Modulation m) {
  switch (m) {
    case Modulation::kQpsk: return "QPSK";
    case Modulation::k16Qam: return "16QAM";
    case Modulation::k64Qam: return "64QAM";
  }
  return "unknown";
}

namespace {

std::int16_t q12(double v) {
  return static_cast<std::int16_t>(std::lround(v * kIqScale));
}

/// 36.211 §7.1.2: QPSK point for bits (b0, b1).
IqSample qpsk_point(int b0, int b1) {
  const double a = 1.0 / std::sqrt(2.0);
  return {q12((1 - 2 * b0) * a), q12((1 - 2 * b1) * a)};
}

/// §7.1.3: 16QAM, bits (b0..b3); amplitude from (b2, b3).
IqSample qam16_point(int b0, int b1, int b2, int b3) {
  const double a = 1.0 / std::sqrt(10.0);
  const double i = (1 - 2 * b0) * (2 - (1 - 2 * b2)) * a;
  const double q = (1 - 2 * b1) * (2 - (1 - 2 * b3)) * a;
  return {q12(i), q12(q)};
}

/// §7.1.4: 64QAM, bits (b0..b5).
IqSample qam64_point(int b0, int b1, int b2, int b3, int b4, int b5) {
  const double a = 1.0 / std::sqrt(42.0);
  const double i =
      (1 - 2 * b0) * (4 - (1 - 2 * b2) * (2 - (1 - 2 * b4))) * a;
  const double q =
      (1 - 2 * b1) * (4 - (1 - 2 * b3) * (2 - (1 - 2 * b5))) * a;
  return {q12(i), q12(q)};
}

template <int Bits>
std::array<IqSample, (1 << Bits)> make_table() {
  std::array<IqSample, (1 << Bits)> t{};
  for (int g = 0; g < (1 << Bits); ++g) {
    const auto bit = [g](int idx) { return (g >> (Bits - 1 - idx)) & 1; };
    if constexpr (Bits == 2) {
      t[static_cast<std::size_t>(g)] = qpsk_point(bit(0), bit(1));
    } else if constexpr (Bits == 4) {
      t[static_cast<std::size_t>(g)] =
          qam16_point(bit(0), bit(1), bit(2), bit(3));
    } else {
      t[static_cast<std::size_t>(g)] =
          qam64_point(bit(0), bit(1), bit(2), bit(3), bit(4), bit(5));
    }
  }
  return t;
}

const std::array<IqSample, 4> kQpsk = make_table<2>();
const std::array<IqSample, 16> k16Qam = make_table<4>();
const std::array<IqSample, 64> k64Qam = make_table<6>();

/// The LLR output rule every demapper shares: clamp to the cap, then
/// round half away from zero.
std::int16_t round_llr(double l) {
  constexpr double kCap = kLlrMagnitudeCap;
  return static_cast<std::int16_t>(std::lround(std::clamp(l, -kCap, kCap)));
}

}  // namespace

std::span<const IqSample> constellation(Modulation m) {
  switch (m) {
    case Modulation::kQpsk: return kQpsk;
    case Modulation::k16Qam: return k16Qam;
    case Modulation::k64Qam: return k64Qam;
  }
  throw std::invalid_argument("unknown modulation");
}

std::vector<IqSample> modulate(std::span<const std::uint8_t> bits,
                               Modulation m) {
  const int bps = bits_per_symbol(m);
  if (bits.size() % static_cast<std::size_t>(bps) != 0) {
    throw std::invalid_argument("modulate: bits not divisible by symbol size");
  }
  const auto table = constellation(m);
  const auto step = static_cast<std::size_t>(bps);
  std::vector<IqSample> out(bits.size() / step);
  // A symbol's index is the top bps bits of the MSB-first pack of the
  // 8-byte window at its first bit. Symbols whose window would run past
  // the input take the per-bit loop.
  const std::size_t windowed =
      bits.size() < 8 ? 0 : (bits.size() - 8) / step + 1;
  for (std::size_t s = 0; s < windowed; ++s) {
    out[s] = table[pack8_msb_first(bits.data() + s * step) >> (8 - bps)];
  }
  for (std::size_t s = windowed; s < out.size(); ++s) {
    std::size_t g = 0;
    for (std::size_t b = 0; b < step; ++b) {
      g = (g << 1) | (bits[s * step + b] & 1u);
    }
    out[s] = table[g];
  }
  return out;
}

AlignedVector<std::int16_t> demodulate_llr_exhaustive(
    std::span<const IqSample> symbols, Modulation m, double n0_q12,
    double llr_scale) {
  if (n0_q12 <= 0) throw std::invalid_argument("demodulate_llr: n0 <= 0");
  const int bps = bits_per_symbol(m);
  const auto table = constellation(m);
  AlignedVector<std::int16_t> llr(symbols.size() *
                                  static_cast<std::size_t>(bps));

  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const std::int32_t yi = symbols[s].i;
    const std::int32_t yq = symbols[s].q;
    // Exact integer squared distances (coordinates are Q12 int16, so the
    // per-axis square fits int32 and the 2-D sum fits int64).
    std::int64_t d0[6], d1[6];
    for (int b = 0; b < bps; ++b) {
      d0[b] = std::numeric_limits<std::int64_t>::max();
      d1[b] = d0[b];
    }
    for (std::size_t g = 0; g < table.size(); ++g) {
      const std::int64_t di = yi - table[g].i;
      const std::int64_t dq = yq - table[g].q;
      const std::int64_t dist = di * di + dq * dq;
      for (int b = 0; b < bps; ++b) {
        const bool one = ((g >> (bps - 1 - b)) & 1u) != 0;
        std::int64_t& slot = one ? d1[b] : d0[b];
        if (dist < slot) slot = dist;
      }
    }
    for (int b = 0; b < bps; ++b) {
      // Positive when bit 1 is more likely.
      const double l = double(d0[b] - d1[b]) / n0_q12 * llr_scale;
      llr[s * static_cast<std::size_t>(bps) + static_cast<std::size_t>(b)] =
          round_llr(l);
    }
  }
  return llr;
}

namespace {

/// Per-axis level table for Gray square QAM: levels[g] is the axis
/// coordinate for the axis bit group g (MSB = sign bit), in Q12.
struct AxisTable {
  int bits = 1;            // axis bits (1 / 2 / 3)
  std::int16_t level[8];   // 2^bits entries
};

AxisTable axis_table(Modulation m) {
  AxisTable t;
  t.bits = bits_per_symbol(m) / 2;
  const auto pts = constellation(m);
  // The I coordinate depends only on the even-position bits
  // (b0, b2, b4); sweep them with the odd bits fixed at zero.
  for (int g = 0; g < (1 << t.bits); ++g) {
    std::size_t idx = 0;
    for (int j = 0; j < t.bits; ++j) {
      const int bit = (g >> (t.bits - 1 - j)) & 1;
      idx |= static_cast<std::size_t>(bit)
             << (bits_per_symbol(m) - 1 - 2 * j);
    }
    t.level[g] = pts[idx].i;
  }
  return t;
}

/// Max-log LLRs for one axis: out[j] for axis bit j of observation y.
/// Integer distances keep this bit-identical to the exhaustive search
/// (the other axis contributes the same additive constant to both
/// hypotheses, which cancels in the difference).
inline void axis_llrs(const AxisTable& t, std::int32_t y,
                      double inv_n0_scale, std::int16_t* out) {
  std::int64_t d0[3], d1[3];
  for (int j = 0; j < t.bits; ++j) {
    d0[j] = std::numeric_limits<std::int64_t>::max();
    d1[j] = d0[j];
  }
  for (int g = 0; g < (1 << t.bits); ++g) {
    const std::int64_t diff = y - t.level[g];
    const std::int64_t d = diff * diff;
    for (int j = 0; j < t.bits; ++j) {
      const bool one = ((g >> (t.bits - 1 - j)) & 1) != 0;
      std::int64_t& slot = one ? d1[j] : d0[j];
      if (d < slot) slot = d;
    }
  }
  for (int j = 0; j < t.bits; ++j) {
    const double l = double(d0[j] - d1[j]) * inv_n0_scale;
    out[j] = round_llr(l);
  }
}

}  // namespace

AlignedVector<std::int16_t> demodulate_llr(std::span<const IqSample> symbols,
                                           Modulation m, double n0_q12,
                                           double llr_scale) {
  AlignedVector<std::int16_t> llr(
      symbols.size() * static_cast<std::size_t>(bits_per_symbol(m)));
  demodulate_llr_into(symbols, m, n0_q12, llr, llr_scale);
  return llr;
}

void demodulate_llr_into(std::span<const IqSample> symbols, Modulation m,
                         double n0_q12, std::span<std::int16_t> out_llr,
                         double llr_scale, IsaLevel isa) {
  if (n0_q12 <= 0) throw std::invalid_argument("demodulate_llr: n0 <= 0");
  const int bps = bits_per_symbol(m);
  if (out_llr.size() != symbols.size() * static_cast<std::size_t>(bps)) {
    throw std::invalid_argument("demodulate_llr_into: output size mismatch");
  }
  const AxisTable table = axis_table(m);
  const double inv = llr_scale / n0_q12;

  simd::DemapAxis axis;
  axis.bits = table.bits;
  axis.inv_n0_scale = inv;
  for (int g = 0; g < (1 << table.bits); ++g) {
    const std::int32_t l = table.level[g];
    axis.madd_2l[g] = static_cast<std::uint16_t>(-2 * l);
    axis.level_sq[g] = l * l;
  }
  std::size_t done = 0;
  switch (std::min(isa, cpu_features().best())) {
    case IsaLevel::kAvx512:
      done = simd::demap_avx512(symbols.data(), symbols.size(), axis,
                                out_llr.data());
      break;
    case IsaLevel::kAvx2:
      done = simd::demap_avx2(symbols.data(), symbols.size(), axis,
                              out_llr.data());
      break;
    case IsaLevel::kSse41:
      done = simd::demap_sse(symbols.data(), symbols.size(), axis,
                             out_llr.data());
      break;
    case IsaLevel::kScalar:
      break;
  }

  // Scalar tier and every tier's tail.
  std::int16_t li[3], lq[3];
  for (std::size_t s = done; s < symbols.size(); ++s) {
    axis_llrs(table, symbols[s].i, inv, li);
    axis_llrs(table, symbols[s].q, inv, lq);
    std::int16_t* out = out_llr.data() + s * static_cast<std::size_t>(bps);
    for (int j = 0; j < table.bits; ++j) {
      out[2 * j] = li[j];      // even bit positions ride on I
      out[2 * j + 1] = lq[j];  // odd bit positions on Q
    }
  }
}

std::vector<std::uint8_t> demodulate_hard(std::span<const IqSample> symbols,
                                          Modulation m) {
  const int bps = bits_per_symbol(m);
  const auto table = constellation(m);
  std::vector<std::uint8_t> bits(symbols.size() *
                                 static_cast<std::size_t>(bps));
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t arg = 0;
    for (std::size_t g = 0; g < table.size(); ++g) {
      const double di = double(symbols[s].i) - table[g].i;
      const double dq = double(symbols[s].q) - table[g].q;
      const double dist = di * di + dq * dq;
      if (dist < best) {
        best = dist;
        arg = g;
      }
    }
    for (int b = 0; b < bps; ++b) {
      bits[s * static_cast<std::size_t>(bps) + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>((arg >> (bps - 1 - b)) & 1u);
    }
  }
  return bits;
}

}  // namespace vran::phy
