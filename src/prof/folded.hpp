// Folded-stack export: converts the span tracer's nested spans into the
// `perf-folded` text format — one line per unique span stack,
// `thread;outer;inner <weight>` — consumable by flamegraph.pl, speedscope,
// or inferno without any adapter. Two weightings:
//
//   kWallMicros — self wall time per span (exclusive: children subtracted),
//                 the classic CPU flamegraph;
//   kAllocBytes — bytes allocated while the span was open on its thread
//                 (heap bytes when the ROOMNET_PROFILE heap hooks are live,
//                 else the explicit arena counters), an allocation
//                 flamegraph showing *which stage* pays for memory.
//
// Nesting is reconstructed per thread track from span intervals (a child's
// [start, end) lies inside its parent's), which is exactly the structure
// ScopedSpan's scoping guarantees. Output lines are sorted, so two
// identical runs fold to byte-identical files.
#pragma once

#include <string>

#include "telemetry/trace.hpp"

namespace roomnet::prof {

enum class FoldedWeight {
  kWallMicros,
  kAllocBytes,
};

/// Folds the tracer's current snapshot. Empty string when no complete spans
/// were recorded.
[[nodiscard]] std::string folded_stacks(const telemetry::Tracer& tracer,
                                        FoldedWeight weight);

/// Writes `trace.folded` (wall µs) and `alloc.folded` (allocated bytes)
/// into `dir` from the global tracer. Returns the first path (the directory
/// or a file) that could not be created or written; empty on success.
[[nodiscard]] std::string write_folded_stacks(const std::string& dir);

}  // namespace roomnet::prof
