// Port-model tests: conservation invariants, port-capacity IPC ceilings,
// cache-level sensitivity, and the paper's headline arrangement
// characteristics (extract vs APCM).
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/kernels.h"
#include "sim/machine.h"
#include "sim/port_sim.h"

namespace vran::sim {
namespace {

PortSimulator beefy_sim() { return PortSimulator(paper_machine(beefy_cache())); }
PortSimulator wimpy_sim() { return PortSimulator(paper_machine(wimpy_cache())); }

Trace pure(UopClass cls, std::size_t n, std::uint16_t bytes = 0) {
  Trace t;
  for (std::size_t i = 0; i < n; ++i) t.emit(cls, -1, -1, bytes);
  t.working_set_bytes = 1024;  // L1 resident
  return t;
}

TEST(PortSim, SlotsConserved) {
  for (auto cls : {UopClass::kScalarAlu, UopClass::kVecAlu, UopClass::kLoad,
                   UopClass::kStore}) {
    const auto td = beefy_sim().run(pure(cls, 1000, 8));
    EXPECT_NEAR(td.retiring + td.frontend + td.bad_speculation + td.backend,
                1.0, 1e-9);
    EXPECT_NEAR(td.backend, td.memory_bound + td.core_bound, 1e-9);
  }
}

TEST(PortSim, EmptyTraceIsZero) {
  const Trace t;
  const auto td = beefy_sim().run(t);
  EXPECT_EQ(td.cycles, 0u);
  EXPECT_EQ(td.uops, 0u);
}

TEST(PortSim, ScalarIpcReachesIssueWidth) {
  const auto td = beefy_sim().run(pure(UopClass::kScalarAlu, 4000));
  EXPECT_NEAR(td.ipc, 4.0, 0.01);
  EXPECT_GT(td.retiring, 0.99);
}

TEST(PortSim, VecIpcCappedAtThreePorts) {
  // Paper §4.2: "the maximum IPC value involved in the SIMD calculation
  // is 3" on the Fig. 2 port model.
  const auto td = beefy_sim().run(pure(UopClass::kVecAlu, 3000));
  EXPECT_NEAR(td.ipc, 3.0, 0.01);
  EXPECT_NEAR(td.core_bound, 0.25, 0.01);
}

TEST(PortSim, StoreIpcCappedAtTwoPorts) {
  const auto td = beefy_sim().run(pure(UopClass::kStore, 2000, 16));
  EXPECT_NEAR(td.ipc, 2.0, 0.01);
}

TEST(PortSim, NarrowStoresHalveThroughput) {
  const auto full = beefy_sim().run(pure(UopClass::kStore, 2000, 16));
  const auto narrow = beefy_sim().run(pure(UopClass::kStoreNarrow, 2000, 2));
  EXPECT_LT(narrow.ipc, 0.6 * full.ipc);
}

TEST(PortSim, DependencyChainLimitsIpc) {
  Trace t;
  std::int32_t prev = t.emit(UopClass::kVecAlu);
  for (int i = 0; i < 2000; ++i) prev = t.emit(UopClass::kVecAlu, prev);
  t.working_set_bytes = 1024;
  const auto td = beefy_sim().run(t);
  EXPECT_NEAR(td.ipc, 1.0, 0.05);  // fully serial
  EXPECT_GT(td.core_bound, 0.7);
}

TEST(PortSim, WorkingSetSelectsMemoryBound) {
  // The same load-heavy trace is core-limited when L1-resident and
  // memory-bound when it spills to L3 — the Fig. 7 wimpy/beefy effect.
  const auto make = [](std::size_t ws) {
    Trace t;
    for (int i = 0; i < 3000; ++i) {
      const auto ld = t.emit(UopClass::kLoad, -1, -1, 16);
      t.emit(UopClass::kVecAlu, ld);
    }
    t.working_set_bytes = ws;
    return t;
  };
  const auto resident = beefy_sim().run(make(16 * 1024));
  const auto spill = wimpy_sim().run(make(4 * 1024 * 1024));  // L3 on wimpy
  EXPECT_LT(resident.memory_bound, 0.05);
  EXPECT_GT(spill.memory_bound, 0.2);
  EXPECT_GT(spill.cycles, resident.cycles);
}

TEST(PortSim, BeefyCacheReducesMemoryBound) {
  Trace t;
  for (int i = 0; i < 3000; ++i) {
    const auto ld = t.emit(UopClass::kLoad, -1, -1, 16);
    t.emit(UopClass::kVecAlu, ld);
  }
  t.working_set_bytes = 512 * 1024;  // fits beefy L2, spills wimpy L2
  const auto wimpy = wimpy_sim().run(t);
  const auto beefy = beefy_sim().run(t);
  EXPECT_GT(wimpy.memory_bound, beefy.memory_bound);
}

TEST(PortSim, BranchMispredictsShowAsBadSpeculation) {
  MachineConfig m = paper_machine(beefy_cache());
  m.mispredict_period = 10;
  const PortSimulator sim(m);
  Trace t;
  for (int i = 0; i < 2000; ++i) {
    t.emit(UopClass::kScalarAlu);
    t.emit(UopClass::kBranch);
  }
  t.working_set_bytes = 1024;
  const auto td = sim.run(t);
  EXPECT_GT(td.bad_speculation, 0.1);
}

// ---------------------------------------------------------------------------
// Arrangement kernel characteristics (the paper's core claims).
// ---------------------------------------------------------------------------

TEST(ArrangeTraces, ExtractIsBackendBoundApcmIsNot) {
  const auto sim = beefy_sim();
  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto ext = sim.run(trace_arrange(arrange::Method::kExtract, isa,
                                           arrange::Order::kCanonical, 4096));
    const auto apcm = sim.run(trace_arrange(arrange::Method::kApcm, isa,
                                            arrange::Order::kBatched, 4096));
    // Paper Fig. 15: backend bound ~45-52% -> <= 5%; IPC ~1.05-1.2 -> 3.3+.
    EXPECT_GT(ext.backend, 0.35) << isa_name(isa);
    EXPECT_LT(apcm.backend, 0.15) << isa_name(isa);
    EXPECT_LT(ext.ipc, 1.8) << isa_name(isa);
    EXPECT_GT(apcm.ipc, 3.0) << isa_name(isa);
    EXPECT_LT(apcm.cycles, ext.cycles) << isa_name(isa);
  }
}

TEST(ArrangeTraces, ExtractBandwidthUtilizationMatchesPaper) {
  // Fig. 8b: 16-bit extraction uses 12.5% / 6.25% / 3.125% of the
  // register-width store path.
  const auto sim = beefy_sim();
  const double want[] = {0.125, 0.0625, 0.03125};
  int i = 0;
  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto ext = sim.run(trace_arrange(arrange::Method::kExtract, isa,
                                           arrange::Order::kCanonical, 8192));
    // Per-operation width use matches the paper exactly (16-bit stores
    // on a register-wide path); time-based utilization sits below it.
    EXPECT_NEAR(ext.store_width_utilization, want[i], 1e-9) << isa_name(isa);
    EXPECT_LE(ext.store_bw_utilization, want[i] * 1.05) << isa_name(isa);
    ++i;
  }
}

TEST(ArrangeTraces, ApcmBandwidthGainFourToSixteenX) {
  // Paper abstract: APCM promotes memory bandwidth utilization by 4-16x.
  const auto sim = beefy_sim();
  for (auto isa : {IsaLevel::kSse41, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto ext = sim.run(trace_arrange(arrange::Method::kExtract, isa,
                                           arrange::Order::kCanonical, 8192));
    const auto apcm = sim.run(trace_arrange(arrange::Method::kApcm, isa,
                                            arrange::Order::kBatched, 8192));
    const double gain =
        apcm.store_bytes_per_cycle / ext.store_bytes_per_cycle;
    EXPECT_GE(gain, 3.5) << isa_name(isa);
    EXPECT_LE(gain, 20.0) << isa_name(isa);
    // Per-operation width utilization: APCM stores whole registers.
    EXPECT_NEAR(apcm.store_width_utilization, 1.0, 1e-9) << isa_name(isa);
  }
}

TEST(ArrangeTraces, ApcmCyclesFlatAcrossWidths) {
  // §5.1: "When extending the width of the registers, the total
  // instructions and cycles required for the APCM will stay the same"
  // per batch — i.e. cycles for a fixed workload halve per width step.
  const auto sim = beefy_sim();
  const auto sse = sim.run(trace_arrange(arrange::Method::kApcm,
                                         IsaLevel::kSse41,
                                         arrange::Order::kBatched, 8192));
  const auto avx2 = sim.run(trace_arrange(arrange::Method::kApcm,
                                          IsaLevel::kAvx2,
                                          arrange::Order::kBatched, 8192));
  const auto avx512 = sim.run(trace_arrange(arrange::Method::kApcm,
                                            IsaLevel::kAvx512,
                                            arrange::Order::kBatched, 8192));
  EXPECT_NEAR(double(avx2.cycles) / double(sse.cycles), 0.5, 0.1);
  EXPECT_NEAR(double(avx512.cycles) / double(avx2.cycles), 0.5, 0.1);
}

TEST(ArrangeTraces, ExtractGetsWorseWithWiderRegisters) {
  // Fig. 14: the original mechanism needs *more* CPU time at 256/512 bits
  // for the same workload (vextracti128 / vextracti32x8 + reload).
  const auto sim = beefy_sim();
  const auto sse = sim.run(trace_arrange(arrange::Method::kExtract,
                                         IsaLevel::kSse41,
                                         arrange::Order::kCanonical, 8192));
  const auto avx2 = sim.run(trace_arrange(arrange::Method::kExtract,
                                          IsaLevel::kAvx2,
                                          arrange::Order::kCanonical, 8192));
  const auto avx512 = sim.run(trace_arrange(arrange::Method::kExtract,
                                            IsaLevel::kAvx512,
                                            arrange::Order::kCanonical, 8192));
  EXPECT_GE(avx2.cycles, sse.cycles);
  EXPECT_GE(avx512.cycles, avx2.cycles);
}

// ---------------------------------------------------------------------------
// Module traces (Figs. 3-7 inputs).
// ---------------------------------------------------------------------------

TEST(ModuleTraces, OfdmIsNearIdealScalar) {
  const auto td = beefy_sim().run(trace_ofdm(512, 2));
  EXPECT_GT(td.ipc, 3.4);           // paper: ~3.8
  EXPECT_LT(td.backend, 0.15);
}

TEST(ModuleTraces, OfdmSimdShrinksUopCountWithWidth) {
  // The SIMD OFDM trace models the vector butterfly kernels: each width
  // doubling halves the number of register-blocks per FFT stage, so the
  // total uop count must fall monotonically (the per-iteration shape is
  // fixed). The scalar overload must agree with the 2-arg generator.
  const auto scalar = trace_ofdm(IsaLevel::kScalar, 512, 2);
  EXPECT_EQ(scalar.uops.size(), trace_ofdm(512, 2).uops.size());
  const auto sse = trace_ofdm(IsaLevel::kSse41, 512, 2);
  const auto avx2 = trace_ofdm(IsaLevel::kAvx2, 512, 2);
  const auto avx512 = trace_ofdm(IsaLevel::kAvx512, 512, 2);
  EXPECT_LT(sse.uops.size(), scalar.uops.size());
  EXPECT_LT(avx2.uops.size(), sse.uops.size());
  EXPECT_LT(avx512.uops.size(), avx2.uops.size());
  EXPECT_EQ(sse.register_bits, 128);
  EXPECT_EQ(avx2.register_bits, 256);
  EXPECT_EQ(avx512.register_bits, 512);
  // Butterflies are independent within a stage, so the port model should
  // still see healthy ILP on a beefy core.
  const auto td = beefy_sim().run(avx512);
  EXPECT_GT(td.ipc, 1.5);
}

TEST(ModuleTraces, ReceiveFrontCyclesShrinkWithWidth) {
  // trace_demap / trace_scramble model the per-tier receive-front
  // kernels (demap_simd.h, descramble_simd.h): every width doubling
  // halves the register blocks, so predicted cycles fall monotonically
  // from the scalar route to AVX-512.
  std::uint64_t demap_prev = ~0ull, scramble_prev = ~0ull;
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto dm = beefy_sim().run(trace_demap(isa, 1024));
    const auto ds = beefy_sim().run(trace_scramble(isa, 4096));
    EXPECT_LT(dm.cycles, demap_prev) << isa_name(isa);
    EXPECT_LT(ds.cycles, scramble_prev) << isa_name(isa);
    demap_prev = dm.cycles;
    scramble_prev = ds.cycles;
  }
}

TEST(ModuleTraces, RateMatchingCyclesShrinkWithWidth) {
  // trace_rate_dematch / trace_rate_match model the per-tier run walks
  // and sub-block transposes (rm_simd.h) at the ul-bulk block geometry:
  // wider registers cover more rows per transpose block and more LLRs
  // per combining op, so predicted cycles fall from scalar to AVX-512.
  std::uint64_t dematch_prev = ~0ull, match_prev = ~0ull;
  for (const IsaLevel isa : {IsaLevel::kScalar, IsaLevel::kSse41,
                             IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    const auto dm = beefy_sim().run(trace_rate_dematch(isa, 4160, 7280));
    const auto m = beefy_sim().run(trace_rate_match(isa, 4160, 7280));
    EXPECT_LT(dm.cycles, dematch_prev) << isa_name(isa);
    EXPECT_LT(m.cycles, match_prev) << isa_name(isa);
    dematch_prev = dm.cycles;
    match_prev = m.cycles;
  }
}

TEST(ModuleTraces, GammaIsElementwiseFast) {
  const auto td = beefy_sim().run(trace_turbo_gamma(IsaLevel::kSse41, 6144));
  EXPECT_GT(td.ipc, 2.3);
}

TEST(ModuleTraces, AlphaBetaChainMatchesPaperIpcBand) {
  const auto td =
      beefy_sim().run(trace_turbo_alpha_beta(IsaLevel::kSse41, 6144));
  // Paper: _mm_max-bound decoding at IPC ~2.1-2.8.
  EXPECT_GT(td.ipc, 1.8);
  EXPECT_LT(td.ipc, 3.0);
}

TEST(ModuleTraces, TurboDecodeDominatedByBackendOnWimpy) {
  const auto td = wimpy_sim().run(
      trace_turbo_decode(IsaLevel::kSse41, 6144, 4, arrange::Method::kExtract));
  EXPECT_GT(td.backend, 0.3);  // paper: >50% incl. memory effects
}

std::size_t count_uops(const Trace& t, UopClass cls) {
  return static_cast<std::size_t>(std::count_if(
      t.uops.begin(), t.uops.end(),
      [cls](const Uop& u) { return u.cls == cls; }));
}

TEST(ModuleTraces, BatchExtrinsicsLeaveFourStepsPerStore) {
  // Pinned per trellis step. The batched twin (turbo_batch_impl.h): 3
  // shuffles per step for the beta step, 14 per 4 steps for the two
  // transpose trees, plus the step-major merge (AVX2 2, AVX-512 1), and
  // one store of the 4 x NW extrinsics per 4 steps. The windowed twin
  // keeps its per-step 3-level trees (11 shuffles per window step) and
  // one 2-byte store per window.
  const int k = 512;
  const struct {
    IsaLevel isa;
    double shuffles_per_step;
  } pins[] = {{IsaLevel::kSse41, 6.5}, {IsaLevel::kAvx2, 7.0},
              {IsaLevel::kAvx512, 6.75}};
  for (const auto& pin : pins) {
    const int nw = lanes_of(pin.isa) / 8;
    const auto b = trace_turbo_ext_batch(pin.isa, k);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(count_uops(b, UopClass::kVecShuffle)) / k,
        pin.shuffles_per_step)
        << isa_name(pin.isa);
    EXPECT_EQ(count_uops(b, UopClass::kStore), static_cast<std::size_t>(k / 4));
    EXPECT_EQ(count_uops(b, UopClass::kStoreNarrow), 0u);
    for (const Uop& u : b.uops) {
      if (u.cls == UopClass::kStore) {
        EXPECT_EQ(u.bytes, 8 * nw);
      }
    }
    EXPECT_EQ(count_uops(trace_turbo_decode_batch(pin.isa, k, 1),
                         UopClass::kStoreNarrow),
              0u);

    const auto w = trace_turbo_ext(pin.isa, k);
    const std::size_t window_steps = static_cast<std::size_t>(k / nw);
    EXPECT_EQ(count_uops(w, UopClass::kVecShuffle), 11 * window_steps);
    EXPECT_EQ(count_uops(w, UopClass::kStoreNarrow),
              static_cast<std::size_t>(k));
    EXPECT_EQ(count_uops(w, UopClass::kStore), 0u);
  }
}

TEST(ModuleTraces, LanesMatchRegisterWidth) {
  EXPECT_EQ(lanes_of(IsaLevel::kSse41), 8);
  EXPECT_EQ(lanes_of(IsaLevel::kAvx2), 16);
  EXPECT_EQ(lanes_of(IsaLevel::kAvx512), 32);
}

}  // namespace
}  // namespace vran::sim

namespace vran::sim {
namespace {

// ---------------------------------------------------------------------------
// Hypothetical register widths (the paper's §1 projection).
// ---------------------------------------------------------------------------

TEST(FutureWidth, ApcmCyclesPerBatchFlat) {
  const auto sim = beefy_sim();
  double prev_per_batch = 0;
  for (int bits : {128, 512, 2048, 4096}) {
    const auto td = sim.run(
        trace_arrange_hypothetical(arrange::Method::kApcm, bits, 1 << 14));
    const double per_batch = double(td.cycles) / ((1 << 14) / (bits / 16));
    if (prev_per_batch > 0) {
      EXPECT_NEAR(per_batch, prev_per_batch, 0.5) << bits;
    }
    prev_per_batch = per_batch;
  }
}

TEST(FutureWidth, ExtractPerElementFlat) {
  // "SIMD data movement can account for more than 50% of the CPU time"
  // (§1): extraction cost per element does not improve with width.
  const auto sim = beefy_sim();
  for (int bits : {128, 1024, 4096}) {
    const auto td = sim.run(
        trace_arrange_hypothetical(arrange::Method::kExtract, bits, 1 << 14));
    const double per_elem = double(td.cycles) / double(1 << 14);
    EXPECT_NEAR(per_elem, 3.0, 0.2) << bits;
  }
}

TEST(FutureWidth, StoreWidthUtilizationShrinks) {
  const auto sim = beefy_sim();
  const auto t1k = sim.run(
      trace_arrange_hypothetical(arrange::Method::kExtract, 1024, 1 << 14));
  const auto t4k = sim.run(
      trace_arrange_hypothetical(arrange::Method::kExtract, 4096, 1 << 14));
  EXPECT_NEAR(t1k.store_width_utilization, 16.0 / 1024, 1e-9);
  EXPECT_NEAR(t4k.store_width_utilization, 16.0 / 4096, 1e-9);
}

TEST(FutureWidth, RejectsBadWidths) {
  EXPECT_THROW(trace_arrange_hypothetical(arrange::Method::kApcm, 100, 64),
               std::invalid_argument);
  EXPECT_THROW(trace_arrange_hypothetical(arrange::Method::kApcm, 8192, 64),
               std::invalid_argument);
}

TEST(TraceInvariants, DependenciesPointBackward) {
  // Every generator must emit well-formed traces: dep indices strictly
  // precede their consumer.
  const Trace traces[] = {
      trace_arrange(arrange::Method::kExtract, IsaLevel::kAvx512,
                    arrange::Order::kCanonical, 512),
      trace_arrange(arrange::Method::kApcm, IsaLevel::kAvx2,
                    arrange::Order::kBatched, 512),
      trace_turbo_decode(IsaLevel::kSse41, 512, 2, arrange::Method::kApcm),
      trace_ofdm(256, 1),
      trace_ofdm(IsaLevel::kSse41, 256, 1),
      trace_ofdm(IsaLevel::kAvx2, 512, 1),
      trace_ofdm(IsaLevel::kAvx512, 512, 1),
      trace_scramble(IsaLevel::kScalar, 1000),
      trace_scramble(IsaLevel::kAvx512, 1000),
      trace_demap(IsaLevel::kScalar, 100),
      trace_demap(IsaLevel::kAvx2, 100),
      trace_crc(1000),
      trace_rate_dematch(IsaLevel::kScalar, 1024, 1000),
      trace_rate_dematch(IsaLevel::kAvx512, 4160, 7280),
      trace_rate_match(IsaLevel::kScalar, 40, 100),
      trace_rate_match(IsaLevel::kSse41, 4160, 7280),
      trace_dci(27),
      trace_arrange_hypothetical(arrange::Method::kExtract, 2048, 1024),
  };
  for (const auto& t : traces) {
    for (std::size_t i = 0; i < t.uops.size(); ++i) {
      const auto& u = t.uops[i];
      EXPECT_LT(u.dep0, static_cast<std::int32_t>(i));
      EXPECT_LT(u.dep1, static_cast<std::int32_t>(i));
    }
    EXPECT_GT(t.uops.size(), 0u);
    EXPECT_GT(t.working_set_bytes, 0u);
  }
}

}  // namespace
}  // namespace vran::sim
