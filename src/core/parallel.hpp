#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/annotations.hpp"

namespace fpr {

/// Worker count requested by the FPR_THREADS environment variable, or
/// std::thread::hardware_concurrency() when unset/invalid. Always >= 1.
/// Read once per call, so tests can vary the variable between pools.
int default_thread_count();

/// Fixed-size thread pool with a plain FIFO task queue.
///
/// This is the repo's only concurrency primitive: width searches probe
/// candidate channel widths on it, the experiment harnesses fan circuit
/// instances out over it, and IGMST fans a net's trees and candidate
/// trials out over it (PathOracle::set_pool). Two properties matter to
/// those callers:
///
///  - **Serial fallback.** A pool of size <= 1 spawns no threads; submit()
///    and parallel_for() run inline on the caller, in index order. Results
///    are therefore identical to a never-parallelized build.
///  - **Caller-helps waiting.** parallel_for() blocks until its batch
///    completes, but while blocked it pops and runs queued tasks (its own
///    batch's or anyone else's). Nested parallel_for — a harness task that
///    itself runs a parallel width search on the shared pool — therefore
///    cannot deadlock: every waiting thread keeps draining the queue.
class ThreadPool {
 public:
  /// Spawns `threads` workers when threads > 1, none otherwise (inline
  /// mode). Values < 1 are clamped to 1.
  explicit ThreadPool(int threads = default_thread_count());
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count this pool was built with (>= 1; 1 means inline mode).
  int size() const { return size_; }

  /// Enqueues one task; the future rethrows any exception it threw.
  /// Inline mode runs the task before returning.
  std::future<void> submit(std::function<void()> fn);

  /// Runs body(0) .. body(count - 1), returning when all are done. The
  /// first exception thrown by any index is rethrown here (the remaining
  /// indices still run). Inline mode executes in index order.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body);

  /// Process-wide pool sized by default_thread_count() at first use.
  static ThreadPool& shared();

 private:
  void worker_loop();
  bool try_run_one();

  const int size_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ FPR_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;  // written only in the ctor/dtor
  bool stop_ FPR_GUARDED_BY(mu_) = false;
};

/// Convenience fan-out used by the experiment harnesses: resolves a
/// thread-count request and runs body(0..count-1) on the matching pool.
///   threads == 0 -> the shared pool (FPR_THREADS / hardware default);
///   threads == 1 -> inline serial, index order;
///   threads >= 2 -> a dedicated pool of exactly that size.
void run_parallel(int threads, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Resolves a thread-count request to a pool once, for callers that issue
/// parallel_for batches against the same choice, or that size their own
/// work by the pool (the width search runs one lane per worker) —
/// run_parallel would rebuild a dedicated pool per batch.
///   threads <= 0 -> the shared pool (FPR_THREADS / hardware default);
///   otherwise    -> the shared pool when it already has exactly `threads`
///                   workers, else a dedicated pool owned by the lease.
/// pool().size() == 1 means serial: parallel_for runs inline, in order.
class PoolLease {
 public:
  explicit PoolLease(int threads);
  ThreadPool& pool() const { return *pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace fpr
