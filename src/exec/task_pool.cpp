#include "exec/task_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "prof/counters.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet::exec {

namespace {

/// Shared state of one fork-join region. Chunks are claimed through one
/// atomic counter; completion is tracked through a second. The acq_rel RMW
/// chain on `done` makes every chunk's writes (results, errors) visible to
/// the thread that observes `done == chunks`.
struct ForkJoin {
  ForkJoin(std::size_t chunk_count,
           const std::function<void(std::size_t)>& chunk_body)
      : chunks(chunk_count), body(&chunk_body), errors(chunk_count) {}

  const std::size_t chunks;
  /// Valid only while the owning run_chunks() frame is alive; drain() never
  /// dereferences it after the final chunk completed, and the owner does not
  /// return before that.
  const std::function<void(std::size_t)>* body;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::exception_ptr> errors;

  /// Claims and runs chunks until none are left. Called by the owning
  /// thread and by helper tasks on the pool.
  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= chunks) return;
      try {
        (*body)(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        const std::lock_guard<std::mutex> lock(mutex);
        cv.notify_all();
      }
    }
  }

  void wait_all_done() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] {
      return done.load(std::memory_order_acquire) == chunks;
    });
  }

  void rethrow_first_error() {
    for (auto& error : errors)
      if (error) std::rethrow_exception(error);
  }
};

}  // namespace

TaskPool::TaskPool(std::size_t threads)
    : threads_(threads == 0 ? default_threads() : threads) {
  auto& registry = telemetry::Registry::global();
  submitted_ = &registry.counter("roomnet_exec_tasks_submitted_total");
  completed_ = &registry.counter("roomnet_exec_tasks_completed_total");
  queue_high_water_ = &registry.gauge("roomnet_exec_queue_depth_high_water");
  task_heap_allocs_ =
      &registry.counter("roomnet_exec_task_heap_allocs_total");
  task_heap_bytes_ = &registry.counter("roomnet_exec_task_heap_bytes_total");
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

TaskPool::~TaskPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void TaskPool::submit(std::function<void()> task) {
  submitted_->inc();
  prof::note_pool_task();
  if (workers_.empty()) {
    run_task(task);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    queue_high_water_->record_max(static_cast<std::int64_t>(queue_.size()));
  }
  cv_.notify_one();
}

void TaskPool::run_task(std::function<void()>& task) {
  // Task-body allocation attribution: the executing thread's prof counters
  // move only while the task runs, so the delta is this task's own cost.
  // (Counts stay zero unless the build armed the ROOMNET_PROFILE hooks.)
  const std::uint64_t heap_allocs_start = prof::t_alloc_counters.heap_allocs;
  const std::uint64_t heap_bytes_start = prof::t_alloc_counters.heap_bytes;
  task();
  const std::uint64_t heap_allocs =
      prof::t_alloc_counters.heap_allocs - heap_allocs_start;
  const std::uint64_t heap_bytes =
      prof::t_alloc_counters.heap_bytes - heap_bytes_start;
  if (heap_allocs != 0) {
    task_heap_allocs_->inc(heap_allocs);
    task_heap_bytes_->inc(heap_bytes);
  }
  completed_->inc();
}

void TaskPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run_task(task);
  }
}

void TaskPool::run_chunks(std::size_t chunks,
                          const std::function<void(std::size_t)>& body) {
  if (chunks == 0) return;
  if (workers_.empty() || chunks == 1) {
    // Sequential path: chunk order is index order, exceptions propagate
    // directly — byte-identical to the pre-parallel code.
    for (std::size_t i = 0; i < chunks; ++i) body(i);
    return;
  }
  // shared_ptr: a helper task may be popped from the queue after every chunk
  // is already claimed (it then returns immediately) — possibly after this
  // frame returned, so the state must outlive the frame.
  auto join = std::make_shared<ForkJoin>(chunks, body);
  const std::size_t helpers = std::min(workers_.size(), chunks - 1);
  for (std::size_t i = 0; i < helpers; ++i)
    submit([join] { join->drain(); });
  join->drain();
  join->wait_all_done();
  join->rethrow_first_error();
}

std::size_t TaskPool::default_threads() {
  if (const char* env = std::getenv("ROOMNET_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1)
      return parsed > 256 ? 256 : static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace roomnet::exec
