// Multicore execution support -- the paper's stated future work
// ("we would investigate and extend our approach to multicore CPU").
//
// Interleave groups are fully independent, so the natural parallelisation
// is across batch slices: each worker packs and computes its own range of
// groups with its own workspace, preserving the per-core L1 residency the
// Batch Counter establishes. This module provides the pool; the engine
// runs plans' execute_range() work items on it.
//
// Hardening contract (exercised by the fault-injection suite):
//   * every parallel_for invocation carries its own Job state (pending
//     count + first error), so errors never leak between calls and
//     concurrent parallel_for calls on one pool stay independent;
//   * the caller always waits for its queued chunks to drain before
//     returning or unwinding -- a throw from any chunk (including the
//     calling thread's own, or an injected "threadpool.*" fault) cannot
//     deadlock the pool, dangle the chunk function, or poison later calls;
//   * deadline-aware dispatch: a call carrying a Deadline stops launching
//     new chunks once it expires and reports Status::Timeout with
//     partial-work accounting instead of wedging the caller -- the pool
//     itself is never poisoned by a timed-out job (chunks already running
//     finish; only not-yet-started chunks are abandoned).
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "iatf/common/status.hpp"
#include "iatf/common/types.hpp"

namespace iatf {

class ThreadPool {
public:
  /// Spawns `threads` workers (0 = hardware concurrency). A pool of one
  /// worker degenerates to inline execution with no thread launched.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return workers_; }

  /// Run fn(chunk_begin, chunk_end) over [begin, end) split into roughly
  /// equal contiguous chunks, one per worker (plus the calling thread).
  /// Blocks until every chunk finishes; the first exception thrown by any
  /// chunk is rethrown here. The pool itself is unaffected by chunk
  /// failures and remains usable for subsequent calls.
  ///
  /// `grain` > 0 overrides the one-chunk-per-worker split with a target
  /// chunk size: the range is cut into ceil(total / grain) chunks that
  /// workers drain from the shared queue (finer chunks trade dispatch
  /// overhead for load balance -- a tunable the autotuner searches).
  /// `grain` <= 0 keeps the default split.
  ///
  /// A non-null `deadline` is checked between chunks: once expired, not
  /// yet started chunks are skipped (running ones finish) and the call
  /// throws TimeoutError carrying completed/total range items. The first
  /// chunk exception still wins over the timeout report.
  void parallel_for(index_t begin, index_t end,
                    const std::function<void(index_t, index_t)>& fn,
                    index_t grain = 0, const Deadline* deadline = nullptr);

  /// Process-wide pool, created on first use. It is a function-local
  /// static, so its destructor -- which joins every worker thread --
  /// runs during static destruction in reverse construction order:
  /// worker threads are guaranteed joined before any static constructed
  /// earlier (and before atexit handlers registered earlier) is torn
  /// down. Engine::default_engine() relies on this ordering.
  static ThreadPool& global();

private:
  /// Per-invocation state: lives on the caller's stack for the duration
  /// of its parallel_for (the caller never unwinds before pending == 0).
  struct Job {
    const std::function<void(index_t, index_t)>* fn = nullptr;
    const Deadline* deadline = nullptr; ///< optional per-call deadline
    std::size_t pending = 0; ///< queued chunks not yet finished
    std::exception_ptr first_error;
    index_t done_items = 0;    ///< range items completed by finished chunks
    index_t skipped_items = 0; ///< range items abandoned after expiry
    bool timed_out = false;    ///< at least one chunk was skipped
  };

  struct Task {
    Job* job = nullptr;
    index_t begin = 0;
    index_t end = 0;
  };

  void worker_loop();
  void run_task(const Task& task);

  unsigned workers_ = 1;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<Task> queue_;
  bool stop_ = false;
};

} // namespace iatf
