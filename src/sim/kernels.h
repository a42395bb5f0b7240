// Trace generators: instrumented twins of every pipeline kernel.
//
// Each generator emits the micro-op sequence (class + dependency
// structure) that the corresponding real kernel executes, so the port
// model can compute its top-down profile. Dependency wiring mirrors the
// real data flow: e.g. the alpha recursion's per-step chain is what caps
// its IPC near the paper's measured ~2.2-2.8 for `_mm_max`-style code,
// while elementwise gamma work issues at full vector-port width.
#pragma once

#include <cstddef>

#include "arrange/arrange.h"
#include "common/cpu_features.h"
#include "sim/uop.h"

namespace vran::sim {

/// int16 lanes of one register at `isa`.
int lanes_of(IsaLevel isa);

// --- Data arrangement (the paper's §5 kernels) -----------------------------

/// Original extract-based or APCM de-interleave of `n_triples` triples.
Trace trace_arrange(arrange::Method method, IsaLevel isa,
                    arrange::Order order, std::size_t n_triples);

/// Same kernels on a hypothetical register width (any multiple of 128
/// bits up to 4096) — the paper's next-generation/GPU-width projection.
/// Extract models the 512-bit pattern recursively (one extra shuffle +
/// reload level per doubling); APCM keeps the fixed 17-op batch.
Trace trace_arrange_hypothetical(arrange::Method method, int register_bits,
                                 std::size_t n_triples);

// --- Turbo decoder phases ---------------------------------------------------

/// Elementwise gamma precompute (paddsw streams) over K steps.
Trace trace_turbo_gamma(IsaLevel isa, int k);
/// One forward + one backward state recursion (the `_mm_max` chains).
Trace trace_turbo_alpha_beta(IsaLevel isa, int k);
/// Extrinsic extraction (adds + horizontal-max trees + scatter stores).
Trace trace_turbo_ext(IsaLevel isa, int k);
/// Batched-lane extrinsic extraction over K steps of every lane group:
/// per step the branch sums and the beta step, per 4 steps and branch
/// one unpack/max transpose tree, then one subtract and one step-major
/// store of the 4 x NW extrinsics (turbo_batch_impl.h).
Trace trace_turbo_ext_batch(IsaLevel isa, int k);
/// Full decode: arrangement + `iterations` x 2 constituent passes.
Trace trace_turbo_decode(IsaLevel isa, int k, int iterations,
                         arrange::Method method);
/// Batched-lane decode: one whole code block per 8-state lane group, so
/// every recursion runs the full K steps at any width while decoding
/// lane_groups(isa) blocks at once. Cost is for the whole batch; divide
/// by lanes_of(isa)/8 for the per-block prediction.
Trace trace_turbo_decode_batch(IsaLevel isa, int k, int iterations);
/// Byte-trellis turbo encoding: both constituents step eight input bits
/// per table lookup; the second gathers its input through the QPP table.
Trace trace_turbo_encode(int k);

// --- Instruction-class micro-kernels (Fig. 7) -------------------------------

/// Streaming `_mm_adds`/`_mm_subs`: independent elementwise vector ops.
Trace trace_vec_elementwise(IsaLevel isa, std::size_t n_elems,
                            std::size_t working_set_bytes);
/// `_mm_max` with the decoder's loop-carried dependency.
Trace trace_vec_max_chain(IsaLevel isa, std::size_t n_elems,
                          std::size_t working_set_bytes);
/// `_mm_extract`-style data movement (the narrow-store pattern).
Trace trace_vec_extract(IsaLevel isa, std::size_t n_elems,
                        std::size_t working_set_bytes);

// --- Other pipeline modules --------------------------------------------------

/// Scalar radix-2 FFT butterflies ("do_ofdm").
Trace trace_ofdm(int nfft, int symbols);
/// SIMD radix-2 FFT at the given tier (fft.h, DESIGN.md §5g), every
/// complex multiply as mul, permute, mul, add on pre-split twiddles. At
/// AVX-512: per 8 x 8 block eight row loads in bit-reversed order, the
/// first three stages across registers, a 24-shuffle transpose and
/// eight stores, then the wide stages two per pass. At SSE / AVX2: a
/// bit-reversed gather copy, in-register shuffle butterflies while a
/// group fits one register, then one pass per wide stage. `inverse`
/// adds the 1/N multiply on the last stage's outputs. kScalar falls
/// through to the scalar trace above.
Trace trace_ofdm(IsaLevel isa, int nfft, int symbols, bool inverse = false);
/// LLR descrambling of n elements at a kernel tier: the word-parallel
/// Gold generator (one 32-bit word per 32 lanes) plus, at kScalar, a
/// per-lane test / negate / narrow store; at AVX-512 one mask register
/// and one masked saturating subtract per register; at SSE / AVX2 a
/// broadcast + and + cmpeq lane mask and a xor + subs flip. The
/// transmitter's scramble_bits runs the same generator on scalar code.
Trace trace_scramble(IsaLevel isa, std::size_t n);
/// Max-log 64QAM demapping of n symbols at a kernel tier: the scalar
/// per-axis int64 search with double scale and lround, or the SIMD
/// pmaddwd distances, minima, double scale-and-round and in-register
/// 3-way interleave of demap_{sse,avx2,avx512}.cc.
Trace trace_demap(IsaLevel isa, std::size_t n_symbols);
/// crc_bits over n one-bit-per-byte bits: eight bits packed per 64-bit
/// load + multiply, then one byte-table step on the remainder chain.
Trace trace_crc(std::size_t n_bits);
/// Rate dematching of e LLRs into a size-k block's soft circular buffer
/// at a kernel tier (rm_simd.h): the run walk from k0 — per run piece a
/// few scalar ops, then paddsw + max-with-(-32767) whole-register
/// combining (one element at a time at kScalar, with a scalar tail per
/// piece on SSE / AVX2 and a masked one on AVX-512) — followed by the
/// triple extraction: per block of 8 / 16 / 32 rows an 8x8 int16 and a
/// 4x4 int32 transpose network per 128-bit lane with 16-byte lane
/// stores, and the 3-way interleave with whole-register stores; rows
/// left over drop to the next narrower tier, and the last few to the
/// scalar column loop.
Trace trace_rate_dematch(IsaLevel isa, int k, std::size_t e);
/// Rate matching of a size-k codeword to e bits at a kernel tier: bit
/// collection into the circular buffer (16 x 16 byte transposes per
/// 128-bit lane, v1 and v2 zipped into pairs; scalar rows at the edges)
/// and the run-by-run copy of e bytes from k0.
Trace trace_rate_match(IsaLevel isa, int k, std::size_t e);
/// DCI Viterbi decoding (scalar add-compare-select with branches).
Trace trace_dci(int payload_bits);

}  // namespace vran::sim
