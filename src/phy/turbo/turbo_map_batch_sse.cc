// SSE (128-bit) batched MAP kernel: one code block in the single lane
// group. Degenerate batch width, but with exact boundary metrics it is
// bit-identical to the scalar reference — it anchors the batched
// differential tests and serves as the lane-compaction tail when a batch
// has shrunk to one unconverged block.
#include "phy/turbo/turbo_batch_impl.h"
#include "phy/turbo/turbo_map_ops_sse.h"

namespace vran::phy::turbo_internal {

void map_decode_batch_sse(std::size_t K, const std::int16_t* gs_step,
                          const std::int16_t* gp_step,
                          const std::int16_t* ainit, const std::int16_t* binit,
                          std::int16_t* ext_step, std::int16_t* alpha_ws) {
  map_decode_batch_impl<SseOps>(K, gs_step, gp_step, ainit, binit, ext_step,
                                alpha_ws);
}

}  // namespace vran::phy::turbo_internal
