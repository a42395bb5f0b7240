// Hardware PMU observability: real top-down counters behind the port
// model.
//
// The paper's argument is micro-architectural *measurement* — backend-
// bound stalls of 45-52 % and IPC ~1.1 in the data-arrangement stage
// collapsing to ~3 % / IPC 3.3-3.6 under APCM (Figs. 5/6/15) — but the
// repo's reproductions of those figures come from the analytic
// `sim/port_sim` model. This subsystem closes the loop from "modelled"
// to "measured": it opens real hardware counters through
// perf_event_open(2) so the benches can print a measured column next to
// every port-model column and `tools/pmu_validate` can report the
// model's relative error per kernel.
//
// Counter sets (co-scheduled groups, so every ratio is taken over the
// same cycles):
//   core group   cycles (leader), instructions, L1D load accesses, and —
//                where the event exists — L1D store accesses and
//                stalled-cycles-backend. Optional members that fail to
//                open are simply absent; the group still runs.
//   topdown group  topdown-slots (leader) + topdown-be-bound, opened
//                from the sysfs event encodings on Icelake-and-later
//                kernels that expose them (the slots-leader grouping
//                rule is why this is a second group). Absent on older
//                CPUs; backend-bound then falls back to the
//                stalled-cycles-backend proxy, or reports "unknown".
//
// Derived metrics (the paper's Fig. 8/15 axes): IPC, backend-bound
// fraction, and L1D accesses (→ bytes) per cycle — see PmuReading.
//
// Graceful, DETERMINISTIC degradation: when the kernel forbids counters
// (perf_event_paranoid, seccomp, a VM without a virtualized PMU) or
// `VRAN_PMU=off` is set, every PmuGroup is a no-op backend — zero
// counters, `valid == false`, no syscalls after the one cached
// availability probe (none at all under VRAN_PMU=off). CI runs the whole
// suite on this path; availability itself is exported as a gauge
// ("pmu.available") so a run's metrics say which columns are real.
//
// Threading model: a PmuGroup counts the thread that OPENED it (perf
// pid=0/cpu=-1, no inherit). Scope-based users go through the lazily
// opened per-thread group (`pmu_thread_group()`), so each worker
// thread's counters are attributed to that worker; PmuScope folds the
// deltas into MetricsRegistry counters, which are per-thread-sharded and
// fold at snapshot() — a merge-after-join discipline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace vran::obs {

/// One reading (or delta, or fold) of a PMU counter group.
struct PmuReading {
  bool valid = false;          ///< a real group produced these numbers
  bool has_topdown = false;    ///< slots / backend_bound_slots populated
  bool has_l1d_stores = false; ///< l1d_stores populated
  bool has_backend_stalls = false;  ///< backend_stall_cycles populated

  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t l1d_loads = 0;
  std::uint64_t l1d_stores = 0;
  std::uint64_t backend_stall_cycles = 0;  ///< stalled-cycles-backend
  std::uint64_t slots = 0;                 ///< topdown-slots
  std::uint64_t backend_bound_slots = 0;   ///< topdown-be-bound

  /// Instructions per cycle; 0 when no cycles were observed.
  double ipc() const {
    return cycles ? double(instructions) / double(cycles) : 0.0;
  }

  /// Backend-bound fraction in [0, 1]: topdown slots when the CPU
  /// exposes them (the Yasin top-down definition the paper uses),
  /// otherwise the stalled-cycles-backend / cycles proxy, otherwise -1
  /// ("unknown" — callers print n/a, never a fabricated number).
  double backend_bound() const;

  /// L1D accesses per cycle (loads + stores when counted, loads alone
  /// otherwise); 0 when no cycles.
  double l1d_accesses_per_cycle() const;

  /// Register<->L1 traffic estimate for a kernel whose accesses move
  /// `bytes_per_access` each (e.g. the register width of a full-width
  /// SIMD kernel) — the paper's Fig. 8 bytes/cycle axis.
  double l1d_bytes_per_cycle(double bytes_per_access) const {
    return l1d_accesses_per_cycle() * bytes_per_access;
  }

  /// Counter-wise difference against an earlier reading of the SAME
  /// group (saturates at 0; flags are ANDed).
  PmuReading delta_since(const PmuReading& t0) const;

  /// Additive fold (join-side aggregation).
  /// Invalid operands contribute nothing.
  void merge(const PmuReading& other);
};

/// Process-wide PMU availability.
enum class PmuStatus {
  kOk = 0,            ///< hardware counters open and count
  kDisabledByEnv = 1, ///< VRAN_PMU=off — forced no-op, no syscalls
  kUnavailable = 2,   ///< perf_event_open refused (paranoid/seccomp/VM)
};

/// Cached availability probe: checks VRAN_PMU first (off → no syscall at
/// all), then tries to open a real group once. Every PmuScope and
/// kAuto-backed PmuGroup consults this, so an unavailable host pays the
/// probe exactly once.
PmuStatus pmu_status();
inline bool pmu_available() { return pmu_status() == PmuStatus::kOk; }
/// True when the probe's group also opened topdown slots/be-bound.
bool pmu_has_topdown();
/// Human-readable status ("ok", "disabled (VRAN_PMU=off)", ...).
const char* pmu_status_string();

/// Pure env-value predicate (exposed so tests cover the parse without
/// mutating the process environment): "off"/"0"/"false"/"no"/"disabled"
/// (case-insensitive) disable; null/empty/"on"/"auto"/anything else
/// leaves the probe in charge.
bool pmu_disabled_by_env_value(const char* value);

/// Export availability into a registry: gauge "pmu.available" (0/1) and
/// "pmu.topdown" (0/1), so every metrics dump is self-describing about
/// whether its pmu.* counters are measured or the fallback's zeros.
void pmu_export_availability(MetricsRegistry& reg);

/// A co-scheduled counter group bound to the opening thread.
class PmuGroup {
 public:
  enum class Backend {
    kAuto,     ///< hardware counters iff pmu_status() == kOk, else no-op
    kHardware, ///< try hardware counters unconditionally (the probe path)
    kNoop,     ///< always the deterministic no-op backend
    kSoftware, ///< kernel software events (task-clock ns in the `cycles`
               ///< slot, context switches in `instructions`): exercises
               ///< the real group-read path on hosts whose hardware PMU
               ///< is hidden. Test harness use only — the units are not
               ///< cycles.
  };

  explicit PmuGroup(Backend backend = Backend::kAuto);
  ~PmuGroup();
  PmuGroup(const PmuGroup&) = delete;
  PmuGroup& operator=(const PmuGroup&) = delete;

  /// True when at least the core group (leader + instructions) opened.
  bool available() const { return main_fd_ >= 0; }
  bool has_topdown() const { return td_fd_ >= 0; }

  /// Cumulative counts since the group was opened (multiplex-scaled by
  /// time_enabled / time_running, though the small groups used here fit
  /// the hardware and should never multiplex). `valid == false` — with
  /// every counter zero — on the no-op backend or a failed read.
  PmuReading read() const;

 private:
  bool open_hardware();
  bool open_software();
  void close_all();

  // Destination slots of the core group's values, in open order (the
  // order PERF_FORMAT_GROUP reads them back).
  enum class Slot : std::uint8_t {
    kCycles, kInstructions, kL1dLoads, kL1dStores, kBackendStalls,
  };
  static constexpr int kMaxSlots = 5;
  int main_fd_ = -1;             ///< core-group leader
  int td_fd_ = -1;               ///< topdown-group leader (slots)
  int member_fds_[kMaxSlots + 1] = {-1, -1, -1, -1, -1, -1};
  int n_member_fds_ = 0;         ///< non-leader fds, both groups
  Slot slots_[kMaxSlots] = {};
  int n_slots_ = 0;
};

/// Lazily opened kAuto group of the calling thread (no-op everywhere
/// when the PMU is unavailable). Lives until thread exit.
PmuGroup& pmu_thread_group();

/// Resolved registry handles for one instrumented region ("stage"):
/// prefix + field + suffix, e.g. resolve(reg, "pmu.stage.arrange.")
/// → "pmu.stage.arrange.cycles", or
/// resolve(reg, "threadpool.pmu.", ".w3") → "threadpool.pmu.cycles.w3".
/// A default-constructed (all-null) instance is the "off" state.
struct PmuStageCounters {
  Counter* cycles = nullptr;
  Counter* instructions = nullptr;
  Counter* l1d_loads = nullptr;
  Counter* l1d_stores = nullptr;
  Counter* backend_stall_cycles = nullptr;
  Counter* slots = nullptr;
  Counter* backend_bound_slots = nullptr;

  bool enabled() const { return cycles != nullptr; }
  /// &*this when enabled, nullptr otherwise — the PmuScope argument.
  const PmuStageCounters* ptr() const { return enabled() ? this : nullptr; }

  static PmuStageCounters resolve(MetricsRegistry& reg,
                                  const std::string& prefix,
                                  const std::string& suffix = "");
  /// Fold a delta in (no-op for invalid readings).
  void add(const PmuReading& delta) const;
};

/// Rebuild an aggregate PmuReading from a snapshot's folded counters
/// (the inverse of PmuStageCounters::add): `valid` iff cycles > 0,
/// topdown/stores/stalls flags from non-zero presence. How benches turn
/// "pmu.stage.<name>.*" counters back into IPC / backend-bound columns.
PmuReading pmu_reading_from(const Snapshot& snap, std::string_view prefix,
                            std::string_view suffix = "");

/// RAII bracket: reads the calling thread's group at construction and
/// destruction and delivers the delta to registry counters and/or a
/// caller-owned accumulator. A null target — or an unavailable PMU —
/// makes the whole object a deterministic no-op (no syscalls).
///
/// Nesting rules: scopes may nest (an inner scope's work is, by
/// construction, included in the outer delta — same free-running group),
/// but must be destroyed in LIFO order ON THE THREAD THAT CREATED THEM.
/// A violation is counted in pmu_scope_misuse_count() and the violating
/// scope records nothing; it is never undefined behavior.
class PmuScope {
 public:
  explicit PmuScope(const PmuStageCounters* counters)
      : PmuScope(counters, nullptr) {}
  explicit PmuScope(PmuReading* accum) : PmuScope(nullptr, accum) {}
  PmuScope(const PmuStageCounters* counters, PmuReading* accum);
  ~PmuScope();
  PmuScope(const PmuScope&) = delete;
  PmuScope& operator=(const PmuScope&) = delete;

  /// True when this scope is actually counting (PMU available and a
  /// non-null target was given).
  bool active() const { return active_; }

  /// Open-scope depth of the calling thread (0 outside any scope).
  static int depth();

 private:
  const PmuStageCounters* counters_ = nullptr;
  PmuReading* accum_ = nullptr;
  PmuReading t0_;
  bool active_ = false;
  int my_depth_ = 0;
  const void* owner_tls_ = nullptr;  ///< creating thread's depth slot
};

/// Total LIFO/cross-thread PmuScope violations observed process-wide.
std::uint64_t pmu_scope_misuse_count();

}  // namespace vran::obs
