#include "engine/worker_pool.h"

namespace vihot::engine {

WorkerPool::WorkerPool(std::size_t num_threads)
    : num_participants_(num_threads),
      num_workers_(num_threads == 0 ? 0 : num_threads - 1),
      drained_(num_threads == 0 ? 1 : num_threads) {
  // Participant 0 is whichever thread calls run(); spawn the other n - 1.
  workers_.reserve(num_workers_);
  for (std::size_t k = 1; k <= num_workers_; ++k) {
    workers_.emplace_back([this, k] { worker_loop(k); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::run(std::size_t count, IndexFnRef fn) {
  if (count == 0) return;
  if (num_workers_ == 0) {
    // Inline degradation: the single-process embedding.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    drained_[0].fetch_add(count, std::memory_order_relaxed);
    return;
  }
  std::unique_lock<std::mutex> lk(mu_);
  // A worker of the previous batch may still be between its last index
  // claim and re-parking; resetting `next_` under its feet would let it
  // steal an index of the new batch. Wait until every worker is parked.
  done_cv_.wait(lk, [this] { return idle_ == num_workers_; });
  job_ = &fn;
  count_ = count;
  next_.store(0);
  remaining_ = count;
  ++generation_;
  lk.unlock();
  work_cv_.notify_all();

  // The caller is participant 0: it starts on the batch at once, and
  // waits only if a worker still holds an index when it runs dry.
  const std::size_t done_here = claim(fn, count, 0);
  lk.lock();
  remaining_ -= done_here;
  done_cv_.wait(lk, [this] { return remaining_ == 0; });
  job_ = nullptr;
}

std::vector<std::uint64_t> WorkerPool::items_drained() const {
  std::vector<std::uint64_t> out(drained_.size());
  for (std::size_t i = 0; i < drained_.size(); ++i) {
    out[i] = drained_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::size_t WorkerPool::claim(IndexFnRef job, std::size_t count,
                              std::size_t participant) noexcept {
  // Drain the shared index counter: natural work stealing, so one slow
  // session never pins the whole batch behind a single participant.
  std::size_t done_here = 0;
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    job(i);
    ++done_here;
  }
  drained_[participant].fetch_add(done_here, std::memory_order_relaxed);
  return done_here;
}

void WorkerPool::worker_loop(std::size_t participant) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    ++idle_;
    if (idle_ == num_workers_) done_cv_.notify_all();
    // `job_ != nullptr` matters: a worker that slept through a whole
    // batch (it completed without this thread) wakes with a stale `seen`
    // after run() already cleared the job — it must keep waiting for the
    // NEXT batch, not run the finished one.
    work_cv_.wait(lk, [&] {
      return stop_ || (job_ != nullptr && generation_ != seen);
    });
    if (stop_) return;
    seen = generation_;
    --idle_;
    const IndexFnRef job = *job_;
    const std::size_t count = count_;
    lk.unlock();

    const std::size_t done_here = claim(job, count, participant);

    lk.lock();
    remaining_ -= done_here;
    if (remaining_ == 0) done_cv_.notify_all();
  }
}

}  // namespace vihot::engine
