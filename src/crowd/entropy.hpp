// Household-fingerprintability entropy analysis (§6.3 / Table 2): extract
// names, UUIDs, and MAC addresses from every device's mDNS/SSDP response
// payloads, group households by which identifier-type combinations they
// expose, and compute per-combination uniqueness and entropy
// (-log2(1/N) over distinct values, the EFF "Cover Your Tracks" measure).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "crowd/inspector.hpp"

namespace roomnet::exec {
class TaskPool;
}  // namespace roomnet::exec

namespace roomnet {

struct FingerprintRow {
  /// Number of identifier types in this combination (Table 2's "#").
  int type_count = 0;
  ExposureClass types;                // which combination
  std::size_t products = 0;           // "Pdt"
  std::size_t vendors = 0;            // "Vdr"
  std::size_t devices = 0;            // "Dev"
  std::size_t households = 0;         // "Hse"
  std::size_t uniquely_identified = 0;
  double entropy_bits = 0;            // "Ent"

  [[nodiscard]] double unique_pct() const {
    return households == 0 ? 0
                           : 100.0 * static_cast<double>(uniquely_identified) /
                                 static_cast<double>(households);
  }
};

struct FingerprintAnalysis {
  /// One row per observed combination, plus the none-exposed row first.
  std::vector<FingerprintRow> rows;
  /// Summary rows aggregated by type_count (the paper's "⌃Hse" totals).
  std::vector<FingerprintRow> by_count;
};

/// Extracts identifiers from one device's payloads (payload-text based;
/// MACs validated against the device's OUI as IoT Inspector does).
std::set<ExtractedIdentifier> device_identifiers(const InspectorDevice& device);

/// One device's contribution to the fingerprint analysis, already reduced to
/// what the grouping needs: which household owns it, its product/model index
/// and vendor, and the identifier set its payloads exposed. The fleet
/// reducer synthesizes these from per-household capture rows; the
/// InspectorDataset wrappers below derive them from synthetic payloads.
struct DeviceFingerprintRow {
  std::size_t household = 0;
  std::size_t product = 0;
  std::string vendor;
  std::set<ExtractedIdentifier> ids;
};

/// Streaming core of the Table 2 analysis: feed device rows one at a time
/// (any producer — a whole InspectorDataset or an incremental fleet
/// reduction), then take the analysis with finish(). Rows group by the
/// identifier-type combination their own ids expose; per-household
/// fingerprints concatenate in feed order, so two equal row streams produce
/// byte-identical analyses (entropy doubles included — the log2 runs once,
/// sequentially, at finish()).
class FingerprintAccumulator {
 public:
  void add(const DeviceFingerprintRow& row);
  /// Folds another accumulator in: class sets union, device counts sum, and
  /// per-household fingerprints concatenate (this' feed first). When the two
  /// accumulators saw disjoint household sets — the fleet reducer's shard
  /// partials — merging in shard order reproduces one sequential feed
  /// exactly, so aggregates stay byte-identical while each shard's rows are
  /// dropped the moment its partial is folded.
  void merge(const FingerprintAccumulator& other);
  /// Builds rows (sorted by type count, then combination) and the by-count
  /// summary. The accumulator is left unchanged and may keep accumulating.
  [[nodiscard]] FingerprintAnalysis finish() const;

 private:
  struct ClassState {
    std::set<std::size_t> products;
    std::set<std::string> vendors;
    /// household -> concatenated "type:value;" fingerprint, in feed order.
    std::map<std::size_t, std::string> fingerprints;
    std::size_t devices = 0;
  };
  std::map<ExposureClass, ClassState> classes_;
  std::map<int, std::set<std::size_t>> households_per_count_;
};

FingerprintAnalysis fingerprint_households(const InspectorDataset& dataset);

/// Parallel variant: per-device identifier extraction (the payload parsing,
/// the expensive part at 12K+ devices) shards over `pool` with results in
/// input order; grouping and the entropy aggregation stay sequential, so
/// the analysis is byte-identical for any worker count.
FingerprintAnalysis fingerprint_households(const InspectorDataset& dataset,
                                           exec::TaskPool& pool);

}  // namespace roomnet
