// Bit-level packing utilities shared by CRC, channel coding and the MAC
// PDU codecs. Bits travel through the PHY as one byte per bit (0/1), the
// layout OAI uses between channel-coding stages; these helpers convert to
// and from packed bytes at the MAC boundary.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace vran {

static_assert(std::endian::native == std::endian::little,
              "the 64-bit bit packers assume little-endian byte order");

/// Pack the eight one-bit-per-byte values p[0..7] (bit 0 of each byte;
/// higher bits ignored) into one byte, p[0] in the MSB. One 64-bit load
/// and one multiply: value k sits at bit 8k, and 0x8040201008040201
/// moves it to bit 63-k without any two partial products colliding.
inline std::uint8_t pack8_msb_first(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return static_cast<std::uint8_t>(
      ((v & 0x0101010101010101ull) * 0x8040201008040201ull) >> 56);
}

/// Inverse direction for LSB-first words: byte k of the result is bit k
/// of `bits8` (0/1). Broadcast, isolate bit k in byte k, then turn each
/// nonzero byte into 1 with a carry-free add.
inline std::uint64_t spread8_lsb_first(std::uint32_t bits8) {
  std::uint64_t x = (bits8 & 0xFFu) * 0x0101010101010101ull;
  x &= 0x8040201008040201ull;
  return ((x + 0x7F7F7F7F7F7F7F7Full) >> 7) & 0x0101010101010101ull;
}

/// MSB-first counterpart: byte k of the result is bit 7-k of `bits8`
/// (0/1), so storing the word writes the byte's bits in stream order.
inline std::uint64_t spread8_msb_first(std::uint32_t bits8) {
  std::uint64_t x = (bits8 & 0xFFu) * 0x0101010101010101ull;
  x &= 0x0102040810204080ull;
  return ((x + 0x7F7F7F7F7F7F7F7Full) >> 7) & 0x0101010101010101ull;
}

/// Expand packed bytes (MSB first) into one-bit-per-byte form.
std::vector<std::uint8_t> unpack_bits(std::span<const std::uint8_t> bytes);

/// Expand only the first `nbits` bits.
std::vector<std::uint8_t> unpack_bits(std::span<const std::uint8_t> bytes,
                                      std::size_t nbits);

/// Pack one-bit-per-byte values (each 0 or 1, MSB first) into bytes. The
/// tail is zero-padded to a byte boundary.
std::vector<std::uint8_t> pack_bits(std::span<const std::uint8_t> bits);

/// Allocation-free variant packing into caller-provided storage;
/// `out.size()` must be exactly (bits.size() + 7) / 8.
void pack_bits_into(std::span<const std::uint8_t> bits,
                    std::span<std::uint8_t> out);

/// Append `width` bits of `value` (MSB first) to `bits`.
void append_bits(std::vector<std::uint8_t>& bits, std::uint32_t value,
                 int width);

/// Read `width` bits (MSB first) starting at `pos`; advances `pos`.
std::uint32_t read_bits(std::span<const std::uint8_t> bits, std::size_t& pos,
                        int width);

}  // namespace vran
