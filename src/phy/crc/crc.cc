#include "phy/crc/crc.h"

#include <array>
#include <stdexcept>

#include "common/bitio.h"

namespace vran::phy {

namespace {

// 36.212 §5.1.1 generator polynomials (leading term dropped).
constexpr std::uint32_t kPoly24A = 0x864CFB;  // D^24+D^23+D^18+D^17+D^14+...
constexpr std::uint32_t kPoly24B = 0x800063;  // D^24+D^23+D^6+D^5+D+1
constexpr std::uint32_t kPoly16 = 0x1021;     // CCITT
constexpr std::uint32_t kPoly8 = 0x9B;        // D^8+D^7+D^4+D^3+D+1

/// Slicing-by-4 tables for one generator. The remainder is kept
/// MSB-aligned in 32 bits (shifted left by 32 - len), so all four CRC
/// lengths share one update: t[0][v] = v(D) * D^32 mod g(D) * D^(32-len)
/// for every byte v, and t[k][v] is the same for v followed by k zero
/// bytes.
using Tables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr Tables make_tables(std::uint32_t poly, int len) {
  const std::uint32_t aligned = poly << (32 - len);
  Tables t{};
  for (std::uint32_t v = 0; v < 256; ++v) {
    std::uint32_t r = v << 24;
    for (int bit = 0; bit < 8; ++bit) {
      r = (r & 0x80000000u) ? ((r << 1) ^ aligned) : (r << 1);
    }
    t[0][v] = r;
  }
  for (std::size_t k = 1; k < 4; ++k) {
    for (std::size_t v = 0; v < 256; ++v) {
      const std::uint32_t r = t[k - 1][v];
      t[k][v] = (r << 8) ^ t[0][r >> 24];
    }
  }
  return t;
}

constexpr Tables kTables24A = make_tables(kPoly24A, 24);
constexpr Tables kTables24B = make_tables(kPoly24B, 24);
constexpr Tables kTables16 = make_tables(kPoly16, 16);
constexpr Tables kTables8 = make_tables(kPoly8, 8);

const Tables& tables_for(CrcType t) {
  switch (t) {
    case CrcType::k24A: return kTables24A;
    case CrcType::k24B: return kTables24B;
    case CrcType::k16: return kTables16;
    case CrcType::k8: return kTables8;
  }
  throw std::invalid_argument("unknown CRC type");
}

/// Feed one message byte (MSB first) into the aligned remainder r.
inline std::uint32_t crc_byte(const Tables& t, std::uint32_t r,
                              std::uint8_t byte) {
  return (r << 8) ^ t[0][(r >> 24) ^ byte];
}

/// Feed four message bytes at once; `w` holds the first in its MSB.
inline std::uint32_t crc_word(const Tables& t, std::uint32_t r,
                              std::uint32_t w) {
  r ^= w;
  return t[3][r >> 24] ^ t[2][(r >> 16) & 0xFFu] ^ t[1][(r >> 8) & 0xFFu] ^
         t[0][r & 0xFFu];
}

}  // namespace

std::uint32_t crc_polynomial(CrcType t) {
  switch (t) {
    case CrcType::k24A: return kPoly24A;
    case CrcType::k24B: return kPoly24B;
    case CrcType::k16: return kPoly16;
    case CrcType::k8: return kPoly8;
  }
  throw std::invalid_argument("unknown CRC type");
}

std::uint32_t crc_bits(std::span<const std::uint8_t> bits, CrcType t) {
  const Tables& tab = tables_for(t);
  // Leading zero bits leave a zero-initialised remainder at zero, so the
  // ragged n % 8 bits go first as one zero-padded byte; the rest is
  // packed eight bits per byte and sliced four bytes per step.
  const std::size_t n = bits.size();
  const std::size_t head = n % 8;
  std::uint8_t first = 0;
  for (std::size_t i = 0; i < head; ++i) {
    first = static_cast<std::uint8_t>((first << 1) | (bits[i] & 1u));
  }
  std::uint32_t r = crc_byte(tab, 0, first);
  const std::uint8_t* p = bits.data();
  std::size_t i = head;
  for (; i + 32 <= n; i += 32) {
    const std::uint32_t w = (std::uint32_t{pack8_msb_first(p + i)} << 24) |
                            (std::uint32_t{pack8_msb_first(p + i + 8)} << 16) |
                            (std::uint32_t{pack8_msb_first(p + i + 16)} << 8) |
                            pack8_msb_first(p + i + 24);
    r = crc_word(tab, r, w);
  }
  for (; i < n; i += 8) r = crc_byte(tab, r, pack8_msb_first(p + i));
  return r >> (32 - crc_length(t));
}

std::uint32_t crc_bytes(std::span<const std::uint8_t> bytes, CrcType t) {
  const Tables& tab = tables_for(t);
  std::uint32_t r = 0;
  for (const std::uint8_t byte : bytes) r = crc_byte(tab, r, byte);
  return r >> (32 - crc_length(t));
}

void crc_attach(std::vector<std::uint8_t>& bits, CrcType t) {
  const std::uint32_t r = crc_bits(bits, t);
  const int len = crc_length(t);
  for (int b = len - 1; b >= 0; --b) {
    bits.push_back(static_cast<std::uint8_t>((r >> b) & 1u));
  }
}

bool crc_check(std::span<const std::uint8_t> bits_with_crc, CrcType t) {
  if (bits_with_crc.size() < static_cast<std::size_t>(crc_length(t))) {
    return false;
  }
  return crc_bits(bits_with_crc, t) == 0;
}

void crc16_attach_masked(std::vector<std::uint8_t>& bits, std::uint16_t rnti) {
  std::uint32_t r = crc_bits(bits, CrcType::k16);
  r ^= rnti;
  for (int b = 15; b >= 0; --b) {
    bits.push_back(static_cast<std::uint8_t>((r >> b) & 1u));
  }
}

bool crc16_check_masked(std::span<const std::uint8_t> bits_with_crc,
                        std::uint16_t rnti) {
  if (bits_with_crc.size() < 16) return false;
  const std::size_t n = bits_with_crc.size() - 16;
  const std::uint32_t want = crc_bits(bits_with_crc.first(n), CrcType::k16);
  std::uint32_t got = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    got = (got << 1) | (bits_with_crc[n + i] & 1u);
  }
  return (want ^ got) == rnti;
}

}  // namespace vran::phy
