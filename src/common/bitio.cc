#include "common/bitio.h"

#include <stdexcept>

namespace vran {

std::vector<std::uint8_t> unpack_bits(std::span<const std::uint8_t> bytes) {
  return unpack_bits(bytes, bytes.size() * 8);
}

std::vector<std::uint8_t> unpack_bits(std::span<const std::uint8_t> bytes,
                                      std::size_t nbits) {
  if (nbits > bytes.size() * 8) {
    throw std::invalid_argument("unpack_bits: nbits exceeds input");
  }
  std::vector<std::uint8_t> bits(nbits);
  const std::size_t whole = nbits / 8;
  for (std::size_t i = 0; i < whole; ++i) {
    const std::uint64_t w = spread8_msb_first(bytes[i]);
    std::memcpy(bits.data() + 8 * i, &w, sizeof(w));
  }
  for (std::size_t i = 8 * whole; i < nbits; ++i) {
    bits[i] = (bytes[i / 8] >> (7 - (i % 8))) & 1u;
  }
  return bits;
}

std::vector<std::uint8_t> pack_bits(std::span<const std::uint8_t> bits) {
  std::vector<std::uint8_t> bytes((bits.size() + 7) / 8, 0);
  pack_bits_into(bits, bytes);
  return bytes;
}

void pack_bits_into(std::span<const std::uint8_t> bits,
                    std::span<std::uint8_t> out) {
  if (out.size() != (bits.size() + 7) / 8) {
    throw std::invalid_argument("pack_bits_into: output size mismatch");
  }
  const std::size_t whole = bits.size() / 8;
  for (std::size_t i = 0; i < whole; ++i) {
    out[i] = pack8_msb_first(bits.data() + 8 * i);
  }
  if (whole == out.size()) return;
  std::uint8_t tail = 0;  // zero-padded last byte
  for (std::size_t i = 8 * whole; i < bits.size(); ++i) {
    tail |= static_cast<std::uint8_t>((bits[i] & 1u) << (7 - (i % 8)));
  }
  out[whole] = tail;
}

void append_bits(std::vector<std::uint8_t>& bits, std::uint32_t value,
                 int width) {
  for (int b = width - 1; b >= 0; --b) {
    bits.push_back(static_cast<std::uint8_t>((value >> b) & 1u));
  }
}

std::uint32_t read_bits(std::span<const std::uint8_t> bits, std::size_t& pos,
                        int width) {
  if (pos + static_cast<std::size_t>(width) > bits.size()) {
    throw std::out_of_range("read_bits: past end of bit stream");
  }
  std::uint32_t v = 0;
  for (int b = 0; b < width; ++b) {
    v = (v << 1) | (bits[pos++] & 1u);
  }
  return v;
}

}  // namespace vran
