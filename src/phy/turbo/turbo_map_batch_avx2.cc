// AVX2 (256-bit) batched MAP kernel: two independent code blocks, one
// per 128-bit lane group, advanced by every full-width recursion step.
#include "phy/turbo/turbo_batch_impl.h"
#include "phy/turbo/turbo_map_ops_avx2.h"

namespace vran::phy::turbo_internal {

void map_decode_batch_avx2(std::size_t K, const std::int16_t* gs_step,
                           const std::int16_t* gp_step,
                           const std::int16_t* ainit,
                           const std::int16_t* binit,
                           std::int16_t* ext_step,
                           std::int16_t* alpha_ws,
                           const AlphaRestarts& restarts) {
  map_decode_batch_impl<Avx2Ops>(
      K, gs_step, gp_step, ainit, binit, ext_step, alpha_ws, restarts);
}

}  // namespace vran::phy::turbo_internal
