// Exporters for the metrics registry: Prometheus text exposition format (a
// run directory's metrics.prom) and a JSON array of the same snapshot (the
// registry dump bench reports embed).
#pragma once

#include <string>

#include "telemetry/metrics.hpp"

namespace roomnet::telemetry {

/// Prometheus text format: `# TYPE` lines plus one sample per metric;
/// histograms expand to cumulative `_bucket{le=...}` / `_sum` / `_count`,
/// plus derived `<name>_p50` / `_p95` / `_p99` gauge families (grouped after
/// the primaries so each family's samples stay contiguous).
std::string to_prometheus(const Registry& registry);

/// Quantile estimate from a histogram snapshot's log2 buckets: walks the
/// cumulative counts to the bucket holding rank `q * count`, then linearly
/// interpolates inside that bucket's [2^(i-1), 2^i - 1] value range. The
/// overflow bucket clamps to its lower edge. Returns 0 for an empty
/// histogram or a non-histogram snapshot. `q` in [0, 1].
std::uint64_t histogram_quantile(const MetricSnapshot& snapshot, double q);

/// JSON array of `{name, labels, kind, value...}` objects (histograms carry
/// per-bucket counts, sum, and count).
std::string to_json(const Registry& registry);

}  // namespace roomnet::telemetry
