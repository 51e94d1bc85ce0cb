#include "crowd/entropy.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "exec/parallel.hpp"
#include "exec/task_pool.hpp"

namespace roomnet {

std::set<ExtractedIdentifier> device_identifiers(const InspectorDevice& device) {
  std::set<ExtractedIdentifier> out;
  for (const auto& payload : device.mdns_responses)
    harvest_identifiers(payload, device.oui, out);
  for (const auto& payload : device.ssdp_responses)
    harvest_identifiers(payload, device.oui, out);
  return out;
}

void FingerprintAccumulator::add(const DeviceFingerprintRow& row) {
  // Table 2's grouping: devices partition into rows by the identifier-type
  // combination THEIR OWN payloads expose; a household is counted in every
  // row for which it owns at least one such device (which is why the
  // paper's per-row household counts sum past 3,860 while the device counts
  // sum to exactly 12,669).
  const ExposureClass types = exposure_class(row.ids);
  ClassState& state = classes_[types];
  state.products.insert(row.product);
  state.vendors.insert(row.vendor);
  ++state.devices;
  // Household fingerprint: the sorted identifier multiset of its devices in
  // this class, concatenated in feed order.
  std::string& fp = state.fingerprints[row.household];
  for (const auto& id : row.ids) fp += to_string(id.type) + ":" + id.value + ";";
  households_per_count_[types.count()].insert(row.household);
}

void FingerprintAccumulator::merge(const FingerprintAccumulator& other) {
  for (const auto& [types, state] : other.classes_) {
    ClassState& dst = classes_[types];
    dst.products.insert(state.products.begin(), state.products.end());
    dst.vendors.insert(state.vendors.begin(), state.vendors.end());
    dst.devices += state.devices;
    for (const auto& [household, fp] : state.fingerprints)
      dst.fingerprints[household] += fp;
  }
  for (const auto& [count, households] : other.households_per_count_)
    households_per_count_[count].insert(households.begin(), households.end());
}

FingerprintAnalysis FingerprintAccumulator::finish() const {
  FingerprintAnalysis analysis;
  for (const auto& [types, state] : classes_) {
    FingerprintRow row;
    row.types = types;
    row.type_count = types.count();
    row.devices = state.devices;
    row.products = state.products.size();
    row.vendors = state.vendors.size();
    row.households = state.fingerprints.size();

    if (types.count() > 0) {
      std::map<std::string, std::size_t> counts;
      for (const auto& [household, fp] : state.fingerprints) ++counts[fp];
      for (const auto& [household, fp] : state.fingerprints)
        if (counts[fp] == 1) ++row.uniquely_identified;
      row.entropy_bits =
          counts.empty() ? 0 : std::log2(static_cast<double>(counts.size()));
    }
    analysis.rows.push_back(row);
  }
  std::sort(analysis.rows.begin(), analysis.rows.end(),
            [](const FingerprintRow& a, const FingerprintRow& b) {
              if (a.type_count != b.type_count) return a.type_count < b.type_count;
              return a.types < b.types;
            });

  // Aggregates per type_count (the paper's per-# summary columns).
  std::map<int, FingerprintRow> totals;
  for (const auto& row : analysis.rows) {
    auto& total = totals[row.type_count];
    total.type_count = row.type_count;
    total.products += row.products;
    total.vendors += row.vendors;
    total.devices += row.devices;
    total.uniquely_identified += row.uniquely_identified;
    total.entropy_bits = std::max(total.entropy_bits, row.entropy_bits);
  }
  for (auto& [count, total] : totals) {
    const auto it = households_per_count_.find(count);
    total.households = it == households_per_count_.end() ? 0 : it->second.size();
    analysis.by_count.push_back(total);
  }
  return analysis;
}

FingerprintAnalysis fingerprint_households(const InspectorDataset& dataset,
                                           exec::TaskPool& pool) {
  // Per-device payload parsing is independent; shard it, keeping each row
  // in its input slot. Everything downstream (the accumulator's grouping,
  // fingerprints, entropy — the floating-point part) runs sequentially over
  // that ordered vector, so the result never depends on the worker count.
  const std::vector<DeviceFingerprintRow> rows = exec::parallel_map(
      pool, dataset.devices.size(), [&](std::size_t i) {
        const InspectorDevice& device = dataset.devices[i];
        DeviceFingerprintRow row;
        row.household = device.household;
        row.product = device.product_index;
        row.vendor = dataset.products[device.product_index].vendor;
        row.ids = device_identifiers(device);
        return row;
      });

  FingerprintAccumulator accumulator;
  for (const auto& row : rows) accumulator.add(row);
  return accumulator.finish();
}

FingerprintAnalysis fingerprint_households(const InspectorDataset& dataset) {
  exec::TaskPool serial(1);
  return fingerprint_households(dataset, serial);
}

}  // namespace roomnet
