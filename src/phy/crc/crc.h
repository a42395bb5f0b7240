// 3GPP TS 36.212 §5.1.1 cyclic redundancy checks.
//
// Four generators are used in LTE channel coding:
//   CRC24A — transport-block CRC
//   CRC24B — per-code-block CRC after segmentation
//   CRC16  — DCI payloads (masked with the RNTI)
//   CRC8   — control information on PUSCH
//
// Bits travel one-per-byte (0/1) between channel-coding stages. Both
// entry points run the same constexpr tables: crc_bits first packs eight
// such bits per byte (bitio.h pack8_msb_first) and slices four bytes per
// step; crc_bytes takes packed bytes from the MAC/transport boundary.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace vran::phy {

enum class CrcType : std::uint8_t { k24A, k24B, k16, k8 };

/// Number of parity bits the generator appends.
constexpr int crc_length(CrcType t) {
  switch (t) {
    case CrcType::k24A:
    case CrcType::k24B: return 24;
    case CrcType::k16: return 16;
    case CrcType::k8: return 8;
  }
  return 0;
}

/// Generator polynomial without the leading term, MSB-aligned to
/// crc_length bits (e.g. CRC16-CCITT -> 0x1021).
std::uint32_t crc_polynomial(CrcType t);

/// CRC over a one-bit-per-byte message (bit 0 of each byte; the other
/// bits are ignored). All-zero initial remainder, as 36.212 specifies.
std::uint32_t crc_bits(std::span<const std::uint8_t> bits, CrcType t);

/// CRC over packed bytes, MSB-first, a byte per table step.
/// Bit-identical to crc_bits(unpack_bits(bytes)).
std::uint32_t crc_bytes(std::span<const std::uint8_t> bytes, CrcType t);

/// Append the CRC parity bits (MSB first) to `bits` in place.
void crc_attach(std::vector<std::uint8_t>& bits, CrcType t);

/// Check a message whose last crc_length(t) bits are parity. True when
/// the remainder over the whole sequence is zero.
bool crc_check(std::span<const std::uint8_t> bits_with_crc, CrcType t);

/// Attach a CRC16 masked (XORed) with a 16-bit RNTI — the DCI scheme
/// (36.212 §5.3.3.2).
void crc16_attach_masked(std::vector<std::uint8_t>& bits, std::uint16_t rnti);

/// Check a masked CRC16; returns true when consistent with `rnti`.
bool crc16_check_masked(std::span<const std::uint8_t> bits_with_crc,
                        std::uint16_t rnti);

}  // namespace vran::phy
