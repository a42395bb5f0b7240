// Deterministic, fast PRNG for workload generation, plus the seeding
// every randomized component shares (the AWGN channel's counter-based
// noise stream keys itself from seed_stream too, phy/channel).
//
// xoshiro256** — stable across platforms so every test vector and benchmark
// workload is reproducible bit-for-bit, unlike std::mt19937 whose
// distributions are implementation-defined.
//
// Every randomized component (packet generators, AWGN channel, property
// tests) derives its seed through `seed_stream()`, so one environment
// variable re-randomizes the whole process without touching any call site:
//
//   VRAN_SEED=<u64>   perturb every stream deterministically (decimal or
//                     0x-prefixed hex). Unset or 0 -> identity, i.e. the
//                     historical fixed seeds, bit-for-bit.
#pragma once

#include <cstdint>
#include <cstdlib>

namespace vran {

/// One splitmix64 step — the mixer used both for seeding xoshiro state and
/// for deriving per-stream seeds from `VRAN_SEED`.
constexpr std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Base seed from the `VRAN_SEED` environment variable, read once.
/// Returns 0 when unset, empty, or unparsable (= "no override").
inline std::uint64_t env_seed() {
  static const std::uint64_t seed = [] {
    const char* s = std::getenv("VRAN_SEED");
    if (s == nullptr || *s == '\0') return std::uint64_t{0};
    return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 0));
  }();
  return seed;
}

/// Derive the effective seed for one named RNG stream. Identity when
/// `VRAN_SEED` is unset (default runs stay bit-identical to the fixed
/// seeds written at the call sites); otherwise mixes the base seed with
/// the stream id so distinct streams stay decorrelated.
inline std::uint64_t seed_stream(std::uint64_t stream) {
  const std::uint64_t base = env_seed();
  if (base == 0) return stream;
  return splitmix64(base ^ splitmix64(stream));
}

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ull) {
    // splitmix64 seeding, as recommended by the xoshiro authors.
    std::uint64_t z = seed;
    for (auto& s : state_) {
      s = splitmix64(z);
      z += 0x9E3779B97F4A7C15ull;
    }
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound).
  std::uint64_t bounded(std::uint64_t bound) { return next() % bound; }

  /// Uniform double in [0, 1).
  double uniform() { return (next() >> 11) * 0x1.0p-53; }

  bool coin() { return (next() & 1u) != 0; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace vran
