#include "prof/profiler.hpp"

#include <thread>
#include <utility>

namespace roomnet::prof {

void Profiler::begin_run(int threads) {
  stages_.clear();
  in_stage_ = false;
  threads_ = threads;
  heap_peak_live_max_ = 0;
  run_start_ = ResourceSample::now();
  run_alloc_start_ = snapshot_alloc_counters();
}

void Profiler::begin_stage(std::string name) {
  stage_name_ = std::move(name);
  stage_start_ = ResourceSample::now();
  stage_alloc_start_ = snapshot_alloc_counters();
  // Reset the live-heap high-water to the current level: the mark then
  // reads as "peak live heap DURING this stage", not since process start.
  GlobalAllocCounters& g = global_alloc_counters();
  g.heap_peak_live_bytes.store(
      g.heap_live_bytes.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  in_stage_ = true;
}

void Profiler::end_stage() {
  if (!in_stage_) return;
  in_stage_ = false;
  const ResourceDelta d = delta(stage_start_, ResourceSample::now());
  const AllocSnapshot a0 = stage_alloc_start_;
  const AllocSnapshot a1 = snapshot_alloc_counters();

  StageProfile s;
  s.name = std::move(stage_name_);
  s.wall_us = d.wall_us;
  s.user_us = d.user_us;
  s.sys_us = d.sys_us;
  s.minor_faults = d.minor_faults;
  s.major_faults = d.major_faults;
  s.rss_delta_kb = d.rss_delta_kb;
  s.rss_kb = d.rss_kb;
  s.peak_rss_kb = d.peak_rss_kb;
  s.arena_allocs = a1.arena_allocs - a0.arena_allocs;
  s.arena_bytes = a1.arena_bytes - a0.arena_bytes;
  s.pool_tasks = a1.pool_tasks - a0.pool_tasks;
  s.heap_allocs = a1.heap_allocs - a0.heap_allocs;
  s.heap_bytes = a1.heap_bytes - a0.heap_bytes;
  s.heap_peak_live_bytes = a1.heap_peak_live_bytes;
  if (s.heap_peak_live_bytes > heap_peak_live_max_)
    heap_peak_live_max_ = s.heap_peak_live_bytes;

  stages_.push_back(std::move(s));
}

ProfReport Profiler::finish() {
  ProfReport report;
  report.compiler = __VERSION__;
  report.profile_heap = heap_hooks_active();
  report.threads = threads_;
  const unsigned hw = std::thread::hardware_concurrency();
  report.hardware_threads = hw == 0 ? 1 : static_cast<std::int64_t>(hw);
  report.page_size = page_size_bytes();
  report.stages = stages_;

  const ResourceDelta d = delta(run_start_, ResourceSample::now());
  const AllocSnapshot a1 = snapshot_alloc_counters();
  StageProfile& t = report.totals;
  t.name = "total";
  t.wall_us = d.wall_us;
  t.user_us = d.user_us;
  t.sys_us = d.sys_us;
  t.minor_faults = d.minor_faults;
  t.major_faults = d.major_faults;
  t.rss_delta_kb = d.rss_delta_kb;
  t.rss_kb = d.rss_kb;
  t.peak_rss_kb = d.peak_rss_kb;
  t.arena_allocs = a1.arena_allocs - run_alloc_start_.arena_allocs;
  t.arena_bytes = a1.arena_bytes - run_alloc_start_.arena_bytes;
  t.pool_tasks = a1.pool_tasks - run_alloc_start_.pool_tasks;
  t.heap_allocs = a1.heap_allocs - run_alloc_start_.heap_allocs;
  t.heap_bytes = a1.heap_bytes - run_alloc_start_.heap_bytes;
  t.heap_peak_live_bytes = heap_peak_live_max_;
  return report;
}

Profiler& Profiler::global() {
  static Profiler* instance = new Profiler;  // leaked: outlives all users
  return *instance;
}

}  // namespace roomnet::prof
