// Wall-clock and cycle timers for the benchmark harnesses.
#pragma once

#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#include <x86intrin.h>
#endif

namespace vran {

/// True when rdtsc() returns TSC reference cycles. On non-x86 builds the
/// fallback returns steady_clock NANOSECONDS instead — callers doing
/// cycle math (cycles/op, cycles -> seconds via a measured TSC frequency)
/// must check this instead of silently mixing units.
constexpr bool rdtsc_counts_cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return true;
#else
  return false;
#endif
}

/// Timestamp read for kernel timing.
///
/// x86-64: the serializing RDTSCP when the CPU has it (absent on
/// pre-Nehalem parts and some emulators, e.g. qemu-tcg without
/// `-cpu max`), plain RDTSC otherwise — probed once via CPUID
/// leaf 0x80000001:EDX[27], never assumed.
///
/// Elsewhere: steady_clock nanoseconds (see rdtsc_counts_cycles()); still
/// monotonic and fine for before/after deltas of the same unit.
inline std::uint64_t rdtsc() {
#if defined(__x86_64__) || defined(_M_X64)
  static const bool has_rdtscp = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(0x80000001u, &eax, &ebx, &ecx, &edx) &&
           ((edx >> 27) & 1u);
  }();
  if (has_rdtscp) {
    unsigned aux = 0;
    return __rdtscp(&aux);
  }
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }
  double nanos() const { return seconds() * 1e9; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace vran
