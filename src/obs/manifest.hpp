// Run provenance: the flight-recorder manifest. A RunManifest names
// everything needed to attribute and reproduce one pipeline run — build and
// compiler identity, sim seed, resolved fault seed, a canonical digest of
// the result-determining config — plus a per-stage SHA-256 content hash of
// each stage's canonically-serialized outputs. Two runs that should agree
// (same seed, different thread counts; telemetry or logging on vs off) must
// produce byte-identical manifest.json files, so a determinism violation is
// localized by diff_manifests() to the *first divergent stage* instead of
// surfacing as "final results differ".
//
// The manifest holds only deterministic content, so its bytes compare
// across thread counts. What varies run to run by nature (thread count,
// per-stage wall time, peak RSS, pool task counts) lives in perf.json
// (prof/report.hpp), the run's one resource record.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netcore/sha256.hpp"

namespace roomnet::obs {

/// Order-sensitive canonical serialization into a streaming SHA-256.
/// Integers fold in as fixed-width big-endian bytes, strings and byte spans
/// length-prefixed, doubles via their IEEE-754 bit pattern — so a hash is
/// reproducible across platforms for the integer-exact simulator.
class CanonicalHasher {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  void str(std::string_view s);
  void bytes(BytesView data);

  [[nodiscard]] Sha256Digest digest() const { return hash_.digest(); }
  [[nodiscard]] std::string hex() const { return hash_.hex(); }

 private:
  Sha256 hash_;
};

/// One pipeline stage's provenance entry.
struct StageRecord {
  std::string name;
  /// SHA-256 (hex) of the stage's canonically-serialized outputs.
  std::string sha256;
  /// Sim clock at stage end — deterministic, so it belongs to the manifest.
  std::int64_t sim_us = 0;

  friend bool operator==(const StageRecord&, const StageRecord&) = default;
};

struct RunManifest {
  int schema = 1;
  std::string tool = "roomnet";
  std::string compiler;           // __VERSION__ at build time
  std::int64_t cxx_standard = 0;  // __cplusplus
  std::uint64_t sim_seed = 0;
  std::uint64_t fault_seed = 0;  // resolved (env override applied)
  /// Canonical digest of the result-determining PipelineConfig fields.
  /// Thread count and output paths are excluded by contract: they must
  /// never change results, and the manifest is how we prove it.
  std::string config_digest;
  std::vector<StageRecord> stages;
  /// Digest over the ordered stage hashes: one id for the whole run.
  std::string result_digest;
};

/// Accumulates a run's StageRecords in order.
class ManifestBuilder {
 public:
  ManifestBuilder();

  void begin(std::uint64_t sim_seed, std::uint64_t fault_seed,
             std::string config_digest);

  void add_stage(std::string name, std::string content_sha256,
                 std::int64_t sim_us);

  /// Finalizes result_digest and returns the manifest.
  [[nodiscard]] RunManifest finish();

 private:
  RunManifest manifest_;
};

/// Canonical JSON bytes of the deterministic manifest content. Fixed field
/// order, no whitespace variance: equal manifests serialize to equal bytes.
[[nodiscard]] std::string to_json(const RunManifest& manifest);

/// Parses to_json() output (strict; nullopt on malformed input).
[[nodiscard]] std::optional<RunManifest> parse_manifest(std::string_view text);
/// Reads and parses a manifest.json file.
[[nodiscard]] std::optional<RunManifest> load_manifest(const std::string& path);

/// Where two manifests first disagree.
struct ManifestDiff {
  bool equal = false;
  /// "" when equal; else "config", "sim_seed", "fault_seed", "build",
  /// "stage" (stage hashes differ — `stage` names the first divergent one),
  /// or "stage_list" (different stage names/counts).
  std::string component;
  std::string stage;   // first divergent stage name, when component=="stage"
  std::string detail;  // human-readable summary
};

/// Compares in run order and reports the FIRST divergence, so a determinism
/// break is attributed to the stage that introduced it, not the stages that
/// inherited it.
[[nodiscard]] ManifestDiff diff_manifests(const RunManifest& a,
                                          const RunManifest& b);

/// VmHWM from /proc/self/status in kB (0 where unavailable).
[[nodiscard]] std::int64_t peak_rss_kb();

}  // namespace roomnet::obs
