// Fixed worker pool for batched index-space fan-out.
//
// The engine's estimate_all() dispatches one job per tracking session on
// every batch tick, potentially thousands of times per second — so the
// pool is built for repeated cheap dispatch, not generic task queueing:
//
//   * threads are created once and live for the pool's lifetime, and
//     the thread calling run() is one of the pool's n participants, so
//     `WorkerPool(n)` spawns n - 1 threads and a tick starts on the
//     caller at once instead of behind a wake-up;
//   * a batch is a half-open index range [0, count) drained through a
//     single atomic counter (work stealing by construction: fast sessions
//     don't pin a worker while a slow one finishes);
//   * the job callable is passed by reference (no std::function, no
//     per-call allocation on the dispatch path).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <type_traits>
#include <thread>
#include <vector>

namespace vihot::engine {

/// Non-owning reference to a `void(std::size_t index)` callable — just
/// enough type erasure to cross the worker boundary without allocating.
class IndexFnRef {
 public:
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::remove_cv_t<F>, IndexFnRef>>>
  IndexFnRef(F& fn)  // NOLINT(google-explicit-constructor)
      : obj_(&fn), call_([](void* obj, std::size_t i) {
          (*static_cast<F*>(obj))(i);
        }) {}

  void operator()(std::size_t i) const { call_(obj_, i); }

 private:
  void* obj_;
  void (*call_)(void*, std::size_t);
};

/// Fixed pool of n participants running index-range batches: the caller
/// of run() plus n - 1 worker threads.
class WorkerPool {
 public:
  /// Spawns `num_threads - 1` threads. `num_threads` 0 and 1 both run
  /// batches inline on the caller thread (no threads are spawned) — the
  /// single-process embedding.
  explicit WorkerPool(std::size_t num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `fn(i)` for every i in [0, count) across the pool, the caller
  /// included, and blocks until all calls returned. `fn` must be safe to
  /// invoke concurrently for distinct indices. Calls must not be issued
  /// concurrently. On a threaded pool a throwing `fn` terminates the
  /// process, on the caller as on a worker.
  void run(std::size_t count, IndexFnRef fn);

  /// The configured participant count n (caller included).
  [[nodiscard]] std::size_t size() const noexcept {
    return num_participants_;
  }

  /// Lifetime items drained per participant: slot 0 is the caller of
  /// run(), slots 1..n-1 the threads (a single slot 0 for the inline
  /// pools). Exposes the work-stealing balance: a healthy pool drains
  /// roughly evenly.
  [[nodiscard]] std::vector<std::uint64_t> items_drained() const;

 private:
  void worker_loop(std::size_t participant);

  /// Claims indices of the current batch until none is left; returns
  /// how many this participant ran. `noexcept`: a throwing job must not
  /// unwind run() while the workers still hold `fn`.
  std::size_t claim(IndexFnRef job, std::size_t count,
                    std::size_t participant) noexcept;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for a new batch
  std::condition_variable done_cv_;  ///< run() waits for completion/idle
  std::uint64_t generation_ = 0;     ///< batch sequence number
  const std::size_t num_participants_;  ///< n, the caller included
  const std::size_t num_workers_;       ///< spawned threads: n - 1, or 0
  std::size_t idle_ = 0;  ///< workers parked in work_cv_ (under mu_)
  bool stop_ = false;

  // Current batch (valid while remaining_ > 0).
  const IndexFnRef* job_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t remaining_ = 0;  ///< indices not yet completed (under mu_)

  std::vector<std::atomic<std::uint64_t>> drained_;  ///< per-participant
  std::vector<std::thread> workers_;
};

}  // namespace vihot::engine
