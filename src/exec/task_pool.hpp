// roomnet::exec — deterministic parallel execution runtime.
//
// A fixed-size worker pool plus fork-join helpers (parallel.hpp) that shard
// an index range into contiguous chunks and merge partial results in index
// order. The determinism contract: for a fixed seed, every analysis built on
// this runtime produces byte-identical output for ANY worker count, and
// `threads == 1` executes inline on the calling thread — no worker threads,
// no queue — reproducing the historical sequential behavior exactly. This is
// the same contract the telemetry determinism guard enforces for
// instrumentation: parallelism may change wall time, never results.
//
// The calling thread always participates in fork-join regions (it claims
// chunks alongside the workers), so nested regions — a task that itself
// calls parallel_for on the same pool — make progress even when every worker
// is busy, and can never deadlock.
//
// Telemetry (always-on relaxed atomics, like the rest of the stack):
//   roomnet_exec_tasks_submitted_total   tasks handed to the worker queue
//   roomnet_exec_tasks_completed_total   tasks finished by workers
//   roomnet_exec_queue_depth_high_water  max queue depth ever observed
//   roomnet_exec_task_heap_allocs_total / roomnet_exec_task_heap_bytes_total
//                                        heap allocations attributed to task
//                                        bodies via the prof thread counters
//                                        (move only with ROOMNET_PROFILE=ON)
//
// Every submitted task also ticks prof::note_pool_task(), the explicit
// allocation hook the per-stage profiler reads (perf.json `pool_tasks`).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace roomnet::telemetry {
class Counter;
class Gauge;
}  // namespace roomnet::telemetry

namespace roomnet::exec {

class TaskPool {
 public:
  /// `threads` is the total parallelism including the calling thread:
  /// a pool of N spawns N-1 workers. 0 means default_threads().
  explicit TaskPool(std::size_t threads = 0);

  /// Drains every already-submitted task, then joins the workers.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Configured parallelism (>= 1), not the live worker count.
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Enqueues one task for a worker. With threads() == 1 there are no
  /// workers: the task runs inline, immediately, on the calling thread.
  void submit(std::function<void()> task);

  /// Runs `body(0) .. body(chunks-1)`, each exactly once, and returns when
  /// all have finished. With threads() == 1 this is a plain sequential loop.
  /// Otherwise up to threads()-1 workers help while the calling thread also
  /// claims chunks. If any chunk throws, the exception from the
  /// lowest-numbered failing chunk is rethrown after every chunk completed
  /// (deterministic regardless of scheduling). The pool stays usable.
  void run_chunks(std::size_t chunks,
                  const std::function<void(std::size_t)>& body);

  /// Resolution order: ROOMNET_THREADS env var (clamped to [1, 256]), else
  /// std::thread::hardware_concurrency(), else 1.
  static std::size_t default_threads();

 private:
  void worker_loop();
  void run_task(std::function<void()>& task);

  std::size_t threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;

  // Resolved once; hot paths touch only relaxed atomics.
  telemetry::Counter* submitted_;
  telemetry::Counter* completed_;
  telemetry::Gauge* queue_high_water_;
  telemetry::Counter* task_heap_allocs_;
  telemetry::Counter* task_heap_bytes_;
};

}  // namespace roomnet::exec
