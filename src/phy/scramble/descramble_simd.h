// Internal per-tier LLR descrambling kernels, one translation unit per
// tier with per-file ISA flags (descramble_{sse,avx2,avx512}.cc),
// reached only through descramble_llr's runtime dispatch.
//
// Each kernel processes whole blocks of 32 LLRs, drawing one 32-bit
// Gold word per block (bit k masks lane k), and returns how many LLRs it
// handled; descramble_llr finishes the tail from the same word stream.
// Flipped lanes become the saturating 0 - v, exactly like the scalar
// sat_sub16(0, v), so every tier writes the same bytes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "phy/scramble/scrambler.h"

namespace vran::phy::simd {

std::size_t descramble_sse(std::int16_t* llr, std::size_t n, GoldSequence& g);
std::size_t descramble_avx2(std::int16_t* llr, std::size_t n, GoldSequence& g);
std::size_t descramble_avx512(std::int16_t* llr, std::size_t n,
                              GoldSequence& g);

}  // namespace vran::phy::simd
