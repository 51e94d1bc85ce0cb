// Exporters for the telemetry substrate: Prometheus text exposition format,
// a JSON mirror of the same snapshot, and Chrome trace_event JSON for the
// tracer (open in chrome://tracing or https://ui.perfetto.dev).
#pragma once

#include <string>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

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

/// Chrome trace_event format: `{"traceEvents": [...]}`. Wall-clock is the
/// primary axis; each event's args carry the SimTime window.
std::string trace_to_chrome_json(const Tracer& tracer);

}  // namespace roomnet::telemetry

namespace roomnet {

/// Dumps the global registry and tracer into `dir` as `metrics.prom`,
/// `metrics.json`, and `trace.json`. Returns the first path (the directory
/// or a file) that could not be created or written; empty on success.
[[nodiscard]] std::string roomnet_telemetry_report(const std::string& dir);

}  // namespace roomnet
