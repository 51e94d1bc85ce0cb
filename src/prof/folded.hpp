// Folded-stack export: renders a run's perf.json (ProfReport) in the
// `perf-folded` text format — one line per stack, `frame;frame <weight>` —
// consumable by flamegraph.pl, speedscope, or inferno without any adapter.
// The run directory's `trace.folded` is this rendering, so the flamegraph
// and `roomnet prof show` read the same numbers from one record.
//
// Each stage is a `main;pipeline;<stage>` frame weighted by its wall µs; the
// `main;pipeline` root carries the run's wall time outside every stage
// (totals minus the stage sum) when that is positive. Lines are sorted, so
// one report always folds to the same bytes.
#pragma once

#include <string>

#include "prof/report.hpp"

namespace roomnet::prof {

/// Folds `report` into trace.folded text. Empty string for a report with no
/// stages and no wall time outside them.
[[nodiscard]] std::string folded_stacks(const ProfReport& report);

}  // namespace roomnet::prof
