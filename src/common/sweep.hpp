// Parallel sweep harness for the bench drivers and ablation studies.
//
// A sweep is an embarrassingly parallel map over independent simulation
// runs: every (workload, configuration) pair is its own single-threaded
// simulation, so the only threading concern is dispatching work items and
// collecting results deterministically. SweepRunner keeps a fixed pool of
// std::thread workers fed from a shared index counter; results are written
// into pre-sized, index-addressed slots, so the output order (and therefore
// every table built from it) is byte-identical regardless of thread count
// or OS scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fgnvm::sim {

/// Worker threads a sweep should use: `requested` when nonzero, else the
/// FGNVM_THREADS environment variable (positive integer), else
/// std::thread::hardware_concurrency() (minimum 1).
unsigned sweep_thread_count(unsigned requested = 0);

/// Validates a user-supplied thread/shard count: 0 falls back to 1 and
/// anything above 4x std::thread::hardware_concurrency() is clamped to that
/// ceiling, each with a one-line warning naming `what` (the config key or
/// environment variable the value came from). Used for the tile
/// topology's shard count.
std::uint64_t clamp_thread_count(std::uint64_t requested, const char* what);

class SweepRunner {
 public:
  /// `threads` as in sweep_thread_count(). The calling thread participates
  /// in every batch, so a single-threaded runner spawns no workers at all
  /// and runs items inline in index order.
  explicit SweepRunner(unsigned threads = 0);
  ~SweepRunner();
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  unsigned threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(0) .. fn(n-1), each exactly once, distributed over the pool.
  /// Blocks until all items finish. If any item throws, the remaining
  /// undispatched items are skipped and the first exception (in completion
  /// order) is rethrown here. Not reentrant: one batch at a time.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// for_each, collecting fn(i) into slot i of the result vector. Result
  /// order depends only on the indices, never on scheduling.
  template <typename R>
  std::vector<R> map(std::size_t n,
                     const std::function<R(std::size_t)>& fn) {
    std::vector<R> out(n);
    for_each(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  void worker_loop();
  /// Pulls and runs items until the current batch is exhausted. Called with
  /// `lock` held; returns with it held.
  void run_items(std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a batch
  std::condition_variable done_cv_;  // for_each waits for completion
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_size_ = 0;   // items in the current batch (0 = none)
  std::size_t next_index_ = 0; // first undispatched item
  std::size_t in_flight_ = 0;  // dispatched but unfinished items
  std::exception_ptr error_;   // first exception of the batch
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace fgnvm::sim
