// roomnet::exec — deterministic parallel runtime tests: ordered reduction,
// index-order maps, empty ranges, exception propagation, nested fork-join
// regions, and the pool telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel.hpp"
#include "exec/task_pool.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet::exec {
namespace {

TEST(ExecPool, ChunkBoundsCoverRangeContiguously) {
  for (const std::size_t n : {0u, 1u, 7u, 64u, 1000u}) {
    for (const std::size_t chunks : {1u, 2u, 3u, 8u}) {
      if (chunks > n && n != 0) continue;
      std::size_t expected_begin = 0;
      const std::size_t effective = n == 0 ? 0 : chunks;
      for (std::size_t i = 0; i < effective; ++i) {
        const auto [begin, end] = chunk_bounds(n, chunks, i);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_LE(begin, end);
        expected_begin = end;
      }
      if (effective != 0) {
        EXPECT_EQ(expected_begin, n);
      }
    }
  }
}

TEST(ExecPool, DefaultThreadsRespectsEnv) {
  ASSERT_EQ(setenv("ROOMNET_THREADS", "3", 1), 0);
  EXPECT_EQ(TaskPool::default_threads(), 3u);
  ASSERT_EQ(setenv("ROOMNET_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(TaskPool::default_threads(), 1u);  // falls back to hardware
  ASSERT_EQ(setenv("ROOMNET_THREADS", "999999", 1), 0);
  EXPECT_EQ(TaskPool::default_threads(), 256u);  // clamped
  ASSERT_EQ(unsetenv("ROOMNET_THREADS"), 0);
  EXPECT_GE(TaskPool::default_threads(), 1u);
}

TEST(ExecPool, DrainsSubmittedTasksBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    TaskPool pool(4);
    for (int i = 0; i < 100; ++i)
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ExecPool, SingleThreadPoolRunsSubmitInline) {
  TaskPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  int ran = 0;
  pool.submit([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);  // already done: no workers, no queue
}

TEST(ExecParallel, ForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    TaskPool pool(threads);
    const std::size_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(pool, n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ExecParallel, MapPreservesIndexOrder) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    TaskPool pool(threads);
    const auto out =
        parallel_map(pool, 5000, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 5000u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ExecParallel, EmptyAndTinyRanges) {
  TaskPool pool(4);
  bool touched = false;
  parallel_for(pool, 0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
  EXPECT_TRUE(parallel_map(pool, 0, [](std::size_t i) { return i; }).empty());
  // n smaller than the worker count still covers every index once.
  const auto tiny = parallel_map(pool, 2, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(tiny, (std::vector<std::size_t>{1, 2}));
}

TEST(ExecParallel, ExceptionFromLowestIndexPropagates) {
  for (const std::size_t threads : {1u, 4u}) {
    TaskPool pool(threads);
    try {
      parallel_for(pool, 1000, [](std::size_t i) {
        if (i == 137 || i == 894)
          throw std::runtime_error("boom@" + std::to_string(i));
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      // 137 and 894 land in different chunks for every tested worker count,
      // and the runtime rethrows the lowest-chunk failure deterministically.
      EXPECT_STREQ(e.what(), "boom@137") << "threads=" << threads;
    }
    // The pool survives the failed region and keeps working.
    const auto ok = parallel_map(pool, 64, [](std::size_t i) { return i; });
    EXPECT_EQ(ok.size(), 64u);
  }
}

TEST(ExecParallel, NestedRegionsOnTheSamePoolDoNotDeadlock) {
  TaskPool pool(4);
  // Outer region saturates the pool; each task opens an inner region on the
  // SAME pool. The calling thread always participates in its own region, so
  // this makes progress even with every worker busy.
  const auto totals = parallel_map(pool, 8, [&](std::size_t outer) {
    const auto inner =
        parallel_map(pool, 100, [](std::size_t i) { return i; });
    return outer * 1000 + std::accumulate(inner.begin(), inner.end(),
                                          std::size_t{0});
  });
  ASSERT_EQ(totals.size(), 8u);
  for (std::size_t outer = 0; outer < totals.size(); ++outer)
    EXPECT_EQ(totals[outer], outer * 1000 + 4950) << outer;
}

TEST(ExecPool, TelemetryCountersAdvance) {
  auto& registry = telemetry::Registry::global();
  const auto submitted_before =
      registry.counter("roomnet_exec_tasks_submitted_total").value();
  const auto completed_before =
      registry.counter("roomnet_exec_tasks_completed_total").value();
  {
    TaskPool pool(4);
    parallel_for(pool, 1000, [](std::size_t) {});
  }
  EXPECT_GT(registry.counter("roomnet_exec_tasks_submitted_total").value(),
            submitted_before);
  EXPECT_GT(registry.counter("roomnet_exec_tasks_completed_total").value(),
            completed_before);
}

}  // namespace
}  // namespace roomnet::exec
