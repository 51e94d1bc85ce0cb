// roomnet::prof — allocation counter substrate.
//
// This header is deliberately dependency-free (standard <atomic>/<cstdint>
// only, everything inline) so the lowest layer that counts allocations — the
// exec TaskPool — can do so without linking against (or even knowing about)
// the rest of roomnet::prof. Three counter families:
//
//   heap   — every operator new/delete, fed by the global hooks in
//            alloc_hooks.cpp when the build is configured with
//            -DROOMNET_PROFILE=ON; otherwise permanently zero.
//   arena  — chunk reservations by stored-capture arenas (the explicit
//            note_arena_alloc hook). No production caller remains: stage 3
//            folds at the tap and stores no frames, so these read zero in
//            every run. The fields stay because perf.json and its readers
//            carry them.
//   pool   — tasks handed to exec::TaskPool (explicit hook; the queue node
//            + std::function storage is the attributed cost). Always on,
//            but NOT thread-count-invariant (chunk counts scale with the
//            pool), so it is excluded from determinism fingerprints.
//
// Every hook is a handful of relaxed atomic adds plus two thread-local
// increments; with ROOMNET_PROFILE=OFF only the explicit pool call sites
// pay, which keeps the profiler inside the ≤5% overhead budget
// (DESIGN.md §11).
#pragma once

#include <atomic>
#include <cstdint>

namespace roomnet::prof {

/// Process-wide totals, updated with relaxed atomics from any thread.
struct GlobalAllocCounters {
  std::atomic<std::uint64_t> heap_allocs{0};
  std::atomic<std::uint64_t> heap_bytes{0};
  std::atomic<std::uint64_t> heap_frees{0};
  std::atomic<std::uint64_t> heap_freed_bytes{0};
  /// Live heap bytes (allocs minus frees) and its high-water mark. The
  /// profiler resets the high-water to the current live level at each stage
  /// boundary, so the mark reads as "peak live during this stage".
  std::atomic<std::int64_t> heap_live_bytes{0};
  std::atomic<std::int64_t> heap_peak_live_bytes{0};

  std::atomic<std::uint64_t> arena_allocs{0};
  std::atomic<std::uint64_t> arena_bytes{0};

  std::atomic<std::uint64_t> pool_tasks{0};
};

inline GlobalAllocCounters& global_alloc_counters() {
  static GlobalAllocCounters counters;  // constant-initialized atomics
  return counters;
}

/// Per-thread running heap totals, read by the TaskPool (per-task
/// attribution). Monotone; consumers take deltas.
struct ThreadAllocCounters {
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;
};

inline thread_local ThreadAllocCounters t_alloc_counters;  // NOLINT

/// Point-in-time copy of the global counters (relaxed loads).
struct AllocSnapshot {
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_bytes = 0;
  std::uint64_t heap_frees = 0;
  std::uint64_t heap_freed_bytes = 0;
  std::int64_t heap_live_bytes = 0;
  std::int64_t heap_peak_live_bytes = 0;
  std::uint64_t arena_allocs = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t pool_tasks = 0;
};

inline AllocSnapshot snapshot_alloc_counters() {
  GlobalAllocCounters& g = global_alloc_counters();
  AllocSnapshot s;
  s.heap_allocs = g.heap_allocs.load(std::memory_order_relaxed);
  s.heap_bytes = g.heap_bytes.load(std::memory_order_relaxed);
  s.heap_frees = g.heap_frees.load(std::memory_order_relaxed);
  s.heap_freed_bytes = g.heap_freed_bytes.load(std::memory_order_relaxed);
  s.heap_live_bytes = g.heap_live_bytes.load(std::memory_order_relaxed);
  s.heap_peak_live_bytes =
      g.heap_peak_live_bytes.load(std::memory_order_relaxed);
  s.arena_allocs = g.arena_allocs.load(std::memory_order_relaxed);
  s.arena_bytes = g.arena_bytes.load(std::memory_order_relaxed);
  s.pool_tasks = g.pool_tasks.load(std::memory_order_relaxed);
  return s;
}

/// Called by the operator new hooks (alloc_hooks.cpp). `bytes` is the usable
/// size of the block where the allocator reports one, else the request size.
inline void note_heap_alloc(std::size_t bytes) noexcept {
  GlobalAllocCounters& g = global_alloc_counters();
  g.heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g.heap_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const std::int64_t live =
      g.heap_live_bytes.fetch_add(static_cast<std::int64_t>(bytes),
                                  std::memory_order_relaxed) +
      static_cast<std::int64_t>(bytes);
  std::int64_t peak = g.heap_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g.heap_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  t_alloc_counters.heap_allocs += 1;
  t_alloc_counters.heap_bytes += bytes;
}

inline void note_heap_free(std::size_t bytes) noexcept {
  GlobalAllocCounters& g = global_alloc_counters();
  g.heap_frees.fetch_add(1, std::memory_order_relaxed);
  g.heap_freed_bytes.fetch_add(bytes, std::memory_order_relaxed);
  g.heap_live_bytes.fetch_sub(static_cast<std::int64_t>(bytes),
                              std::memory_order_relaxed);
}

/// Explicit arena hook: one chunk reservation of `bytes` by a capture arena.
/// No production code calls it any more (see the arena family above); the
/// profiler's stage attribution is still tested through it.
inline void note_arena_alloc(std::size_t bytes) noexcept {
  GlobalAllocCounters& g = global_alloc_counters();
  g.arena_allocs.fetch_add(1, std::memory_order_relaxed);
  g.arena_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

/// Explicit pool hook: one task handed to an exec::TaskPool.
inline void note_pool_task() noexcept {
  global_alloc_counters().pool_tasks.fetch_add(1, std::memory_order_relaxed);
}

/// True when this binary was built with -DROOMNET_PROFILE=ON, i.e. the
/// global operator new/delete hooks are live and heap_* counters move.
/// Defined in alloc_hooks.cpp — calling it also forces that translation
/// unit (and with it the operator new overrides) into the link.
[[nodiscard]] bool heap_hooks_active();

}  // namespace roomnet::prof
