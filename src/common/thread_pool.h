// A fixed-size worker pool for data-parallel loops (no work stealing, no
// task graph). The planner's evaluation engine uses it to score candidate
// topologies concurrently; determinism is preserved because parallel_for
// assigns each index its own output slot and the caller decides winners by
// index, never by completion order.
//
// Multi-caller contract: several threads may call parallel_for on one pool
// at once, and a pool task may call parallel_for on the pool that runs it
// (nesting). The federation relies on both: dirty shards plan as tasks of
// one loop, and each shard's evaluator dispatches its candidate blocks
// into the same pool. Every call publishes its own Job and the caller
// drains that job itself, so a call completes even if no worker ever
// joins it; a caller waits only for indices other threads already
// claimed, and those threads are running them. Idle workers join the
// latest published job. Each call runs every index exactly once and
// rethrows only its own job's first exception.
//
// Lock discipline (machine-checked under -DREMO_TSA=ON, DESIGN.md §16):
// `mutex_` guards the job hand-off state (job_, job_generation_, stop_);
// workers take it only to pick up or wait for a job, never while running
// one. Per-job completion state lives in Job (see thread_pool.cpp), under
// the job's own `done_mutex`.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace remo {

class ThreadPool {
 public:
  /// Spawns `workers` threads. The intended sizing for a pool backing
  /// `parallel_for` is concurrency − 1: the calling thread participates in
  /// every loop, so a pool of N−1 workers yields N-way parallelism.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker threads owned by the pool (excludes the calling thread).
  std::size_t workers() const noexcept { return threads_.size(); }

  /// Runs fn(0) … fn(n-1), each exactly once, across the workers plus the
  /// calling thread; blocks until all complete. Indices are claimed from an
  /// atomic counter, so the *assignment* of index to thread is racy but the
  /// set of executed indices is not. If any fn throws, the first exception
  /// (by completion order) is rethrown in the caller after the loop drains.
  /// Serial fallback (no pool involvement) when the pool has no workers.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn)
      REMO_EXCLUDES(mutex_);

  /// Default concurrency: hardware_concurrency, floored at 1.
  static std::size_t default_concurrency();

 private:
  struct Job;
  void worker_loop() REMO_EXCLUDES(mutex_);
  static void run(Job& job);

  Mutex mutex_;
  CondVar wake_;
  /// Latest published job, for idle workers to join; null once its caller
  /// has drained it. Earlier jobs still running are not listed here —
  /// their callers (and any workers already inside them) finish them.
  std::shared_ptr<Job> job_ REMO_GUARDED_BY(mutex_);
  std::uint64_t job_generation_ REMO_GUARDED_BY(mutex_) = 0;
  bool stop_ REMO_GUARDED_BY(mutex_) = false;
  /// Written only by the constructor/destructor (no concurrent access).
  /// The pool is the sanctioned thread owner in src/:
  // remo-lint: allow(naked-thread) workers joined in ~ThreadPool, no detach
  std::vector<std::thread> threads_;
};

}  // namespace remo
