// Fixed-size worker pool for the decode hot path.
//
// LTE code blocks are independent after segmentation, so the expensive
// receive chain (de-rate-match -> data arrangement -> turbo decode) can
// run one code block per worker; the paper's Fig. 16 likewise scales the
// arrangement + decode workload across cores. This pool is deliberately
// small and deterministic:
//
//  * a fixed set of worker threads created up front (no growth),
//  * `parallel_for` over an index range in which the CALLING thread
//    participates — a pool constructed with N-1 workers gives N-way
//    concurrency, and a pool is never needed at all for the
//    `num_workers == 1` legacy path,
//  * parallel_for is ALLOCATION-FREE: instead of enqueueing per-call
//    std::function tasks, the range is broadcast to all workers through
//    a single epoch-stamped descriptor (type-erased as a plain function
//    pointer + context pointer), and indices are claimed from a shared
//    atomic counter. The steady-state decode path must perform zero
//    heap allocations per TTI (see tests/test_alloc.cc), and the old
//    make_shared + std::function scheme allocated on every call.
//  * exception propagation: the first exception thrown by any index is
//    captured and rethrown on the caller after every index has been
//    claimed and the in-flight ones have drained.
//
// Concurrency contract for parallel_for: calls are serialized on an
// internal mutex — two threads may call concurrently (they run one
// after the other), but NESTING a parallel_for inside another
// parallel_for's body on the same pool deadlocks and is forbidden.
// Nothing in this library nests (the BatchRunner forces its flow
// pipelines to num_workers = 1 for exactly this reason).
//
// The pool makes no fairness or ordering promises between tasks; callers
// that need deterministic output (everything in this library does) must
// write to disjoint, pre-sized slots indexed by the parallel_for index —
// never to shared accumulators. Timing goes to sharded metrics
// histograms (obs/metrics.h), which fold on snapshot.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/pmu.h"

namespace vran {

class ThreadPool {
 public:
  /// Spawns `num_threads` OS threads (0 is valid: every parallel_for then
  /// degenerates to a plain loop on the caller). Queue-wait and
  /// task-runtime distributions plus per-worker task/busy counters are
  /// recorded into `metrics` ("threadpool.*"); pass nullptr to disable.
  /// `fault` (optional) arms the kWorkerDelay point: a worker stalls
  /// 20-120us before running a task — scheduling jitter that must never
  /// change pipeline output, only timing.
  /// `pmu` brackets every task / parallel region a worker executes with
  /// a hardware-counter scope folding into `metrics` as
  /// "threadpool.pmu.<field>.w<id>" — per-worker cycle/instruction/L1D
  /// attribution next to the existing tasks/busy_ns counters. A no-op
  /// (and free) when the PMU is unavailable or `metrics` is null; the
  /// caller thread's share of parallel_for work is attributed by the
  /// pipeline's own stage scopes, not here (worker id 0 has no pool
  /// thread to bracket).
  explicit ThreadPool(int num_threads,
                      obs::MetricsRegistry* metrics =
                          &obs::MetricsRegistry::global(),
                      fault::FaultInjector* fault = nullptr,
                      bool pmu = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (not counting callers of parallel_for).
  int size() const { return static_cast<int>(workers_.size()); }

  /// Run `fn(i)` for every i in [begin, end). Indices are claimed from a
  /// shared atomic counter by the workers AND the calling thread, so the
  /// load balances across uneven per-index cost. Blocks until all indices
  /// have finished; rethrows the first exception any index threw.
  /// Performs no heap allocation: `fn` is passed by reference through a
  /// type-erased (function pointer, context) pair, never copied.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    parallel_for_impl(
        begin, end,
        [](void* ctx, std::size_t i) { (*static_cast<F*>(ctx))(i); },
        const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

  /// Enqueue a single task for the workers. Requires size() >= 1 (with no
  /// workers there is nobody to run it; throws std::logic_error). Use the
  /// future to join and to observe exceptions. (This path still
  /// allocates; it is for setup/background work, not the hot path.)
  std::future<void> submit(std::function<void()> task);

  /// Number of hardware threads, never less than 1 (the
  /// `std::thread::hardware_concurrency() == 0` fallback).
  static int hardware_threads();

  /// Worker id of the calling thread: 1..size() on a pool worker, 0 on
  /// any other thread (callers participating in parallel_for included).
  /// Observability labels per-worker activity with this (trace span tid,
  /// "threadpool.*.w<id>" counters).
  static int current_worker_id();

 private:
  /// Type-erased parallel_for body: invoke(ctx, i) calls the original
  /// callable. A plain function pointer + void* so broadcasting a region
  /// to the workers copies two words instead of allocating a closure.
  using ParallelInvoke = void (*)(void*, std::size_t);

  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// The broadcast slot: one parallel region at a time (guarded by
  /// pf_mu_). Workers detect a new region by the epoch changing and copy
  /// the descriptor under mu_ before touching it.
  struct ParallelWork {
    ParallelInvoke invoke = nullptr;
    void* ctx = nullptr;
    std::size_t begin = 0;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};  ///< index claim counter
    std::atomic<std::size_t> done{0};  ///< finished index count
    std::uint64_t epoch = 0;           ///< bumped per region (under mu_)
    int active = 0;                    ///< workers inside the region
    std::exception_ptr error;          ///< first exception (under mu_)
  };

  void parallel_for_impl(std::size_t begin, std::size_t end,
                         ParallelInvoke invoke, void* ctx);
  void run_parallel_indices(ParallelInvoke invoke, void* ctx,
                            std::size_t begin, std::size_t n);
  void worker_loop(int worker_index);
  void enqueue_locked(std::function<void()> fn);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;       ///< wakes workers (queue / region / stop)
  std::condition_variable join_cv_;  ///< wakes region callers (done / active)
  std::deque<QueuedTask> queue_;
  bool stop_ = false;

  std::mutex pf_mu_;  ///< serializes parallel_for callers
  ParallelWork work_;

  // Metric handles resolved once at construction; null = instrumentation
  // off. Recording is lock-free (per-thread shards in the registry).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* queue_wait_ns_ = nullptr;
  obs::Histogram* task_ns_ = nullptr;
  fault::FaultInjector* fault_ = nullptr;
  bool pmu_ = false;
};

}  // namespace vran
