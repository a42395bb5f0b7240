// Lifetime check of the --hw workload factories (bench/hw_kernels.h):
// every wl_* factory is built and its workload run once, at K 40 and
// 1024 and at every available tier. A factory's closure must own every
// buffer its kernel touches; one that keeps only a view into a buffer
// that died with the factory reads or writes freed memory, which this
// test turns into an ASan failure (label sanitizer). The figures and
// pmu_validate run the same factories with PMU counters around them.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "bench/hw_kernels.h"
#include "common/cpu_features.h"

namespace vran::bench::hw {
namespace {

std::vector<IsaLevel> simd_tiers() {
  std::vector<IsaLevel> out;
  for (const IsaLevel isa :
       {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    if (isa <= best_isa()) out.push_back(isa);
  }
  return out;
}

std::vector<IsaLevel> all_tiers() {
  std::vector<IsaLevel> out{IsaLevel::kScalar};
  for (const IsaLevel isa : simd_tiers()) out.push_back(isa);
  return out;
}

class HwKernels : public ::testing::TestWithParam<int> {};

TEST_P(HwKernels, EveryFactoryRunsOnce) {
  const int k = GetParam();
  const std::size_t n = static_cast<std::size_t>(k) + phy::kTurboTail;
  const int e = 3 * k;
  std::vector<Workload> runs;
  for (const IsaLevel isa : simd_tiers()) {
    for (const auto method : {arrange::Method::kExtract, arrange::Method::kApcm}) {
      runs.push_back(wl_arrange(method, isa, arrange::Order::kCanonical, n));
      runs.push_back(wl_turbo_decode(isa, k, 1, method));
    }
    runs.push_back(wl_turbo_decode_batch(isa, k, 1));
    runs.push_back(wl_ofdm_rx(isa, 512, 1));
    runs.push_back(wl_ofdm_tx(isa, 512, 1));
  }
  for (const IsaLevel isa : all_tiers()) {
    runs.push_back(wl_descramble(isa, n));
    runs.push_back(wl_demap(isa, n));
    runs.push_back(wl_rate_match(isa, k, e));
    runs.push_back(wl_rate_dematch(isa, k, e));
    runs.push_back(wl_channel(isa, n));
  }
  runs.push_back(wl_turbo_encode(k));
  runs.push_back(wl_scramble(n));
  runs.push_back(wl_crc(n));
  runs.push_back(wl_dci());
  // The factories' locals are gone by now; only the closures remain.
  for (const auto& run : runs) run();
  SUCCEED() << runs.size() << " workloads";
}

INSTANTIATE_TEST_SUITE_P(SmallAndMidK, HwKernels, ::testing::Values(40, 1024));

}  // namespace
}  // namespace vran::bench::hw
