// Fork-join helpers over TaskPool: parallel_for / parallel_map.
//
// Both helpers shard [0, n) into min(pool.threads(), n) CONTIGUOUS chunks.
// parallel_map writes each result into its own index slot, so its output is
// byte-identical for every worker count and threads == 1 reproduces the
// plain sequential loop exactly. Order-sensitive aggregation — floating-point
// sums above all — belongs in the sequential stage after the map, as the
// analyses here do it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/task_pool.hpp"

namespace roomnet::exec {

/// [begin, end) of chunk `i` when [0, n) splits into `chunks` contiguous
/// pieces, remainder spread over the leading chunks.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> chunk_bounds(
    std::size_t n, std::size_t chunks, std::size_t i) {
  const std::size_t base = n / chunks;
  const std::size_t remainder = n % chunks;
  const std::size_t begin = i * base + (i < remainder ? i : remainder);
  return {begin, begin + base + (i < remainder ? 1 : 0)};
}

/// Calls `fn(i)` for every i in [0, n). `fn` must be safe to call
/// concurrently for distinct indices (writes to disjoint state only).
template <typename Fn>
void parallel_for(TaskPool& pool, std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const std::size_t chunks = std::min(pool.threads(), n);
  pool.run_chunks(chunks, [&](std::size_t chunk) {
    const auto [begin, end] = chunk_bounds(n, chunks, chunk);
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Returns {fn(0), ..., fn(n-1)} with every result in its index slot, so
/// the output vector is identical for any worker count. The result type
/// must be default-constructible.
template <typename Fn>
[[nodiscard]] auto parallel_map(TaskPool& pool, std::size_t n, Fn&& fn) {
  using R = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
  std::vector<R> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace roomnet::exec
