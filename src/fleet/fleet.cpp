#include "fleet/fleet.hpp"

#include <chrono>
#include <cstdio>
#include <set>
#include <string_view>

#include "core/stage_names.hpp"
#include "exec/task_pool.hpp"
#include "fleet/context.hpp"
#include "netcore/text_file.hpp"
#include "obs/manifest.hpp"
#include "prof/profiler.hpp"
#include "telemetry/metrics.hpp"
#include "testbed/catalog.hpp"

namespace roomnet::fleet {

namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// "name+uuid+mac" combination label ("none" for the empty class).
std::string class_label(const ExposureClass& types) {
  std::string label;
  const auto append = [&label](const char* part) {
    if (!label.empty()) label += "+";
    label += part;
  };
  if (types.name) append("name");
  if (types.uuid) append("uuid");
  if (types.mac) append("mac");
  return label.empty() ? "none" : label;
}

void append_fingerprint_rows(std::string& out,
                             const std::vector<FingerprintRow>& rows) {
  out += "[";
  bool first = true;
  for (const auto& row : rows) {
    if (!first) out += ",";
    first = false;
    out += "{\"types\":\"" + class_label(row.types) + "\"";
    out += ",\"type_count\":" + std::to_string(row.type_count);
    out += ",\"products\":" + std::to_string(row.products);
    out += ",\"vendors\":" + std::to_string(row.vendors);
    out += ",\"devices\":" + std::to_string(row.devices);
    out += ",\"households\":" + std::to_string(row.households);
    out += ",\"uniquely_identified\":" + std::to_string(row.uniquely_identified);
    out += ",\"entropy_bits\":" + format_double(row.entropy_bits) + "}";
  }
  out += "]";
}

/// One shard's reduction state. Each worker folds its households into a
/// partial the moment they finish and drops the full HouseholdResult rows,
/// so fleet-wide memory holds O(shards) partials — hash strings plus bounded
/// aggregate maps — instead of O(households) result rows. Every field merges
/// order-insensitively at shard granularity (sums, map-wise sums, set
/// unions; households never span shards), so folding the partials in shard
/// index order reproduces the sequential reduction byte for byte.
struct ShardPartial {
  std::vector<std::string> hashes;  // per-household row hashes, index order
  FleetAggregates agg;              // fingerprints field unused; see below
  FingerprintAccumulator fingerprints;
};

constexpr std::uint32_t kOpenSurfaceMask =
    (1u << static_cast<int>(ProtocolLabel::kTplinkShp)) |
    (1u << static_cast<int>(ProtocolLabel::kTuyaLp)) |
    (1u << static_cast<int>(ProtocolLabel::kTelnet)) |
    (1u << static_cast<int>(ProtocolLabel::kHttp));

void fold_household(ShardPartial& partial, const HouseholdResult& row,
                    const std::vector<DeviceSpec>& catalog) {
  FleetAggregates& agg = partial.agg;
  partial.hashes.push_back(row.sha256);
  ++agg.households;
  agg.packets += row.packets;
  agg.flows += row.flows;
  agg.bytes += row.bytes;
  ++agg.household_sizes[row.devices.size()];
  // Which labels/cells/surfaces this household already counted toward
  // (household-level prevalence).
  std::set<ProtocolLabel> household_labels;
  std::set<std::pair<ProtocolLabel, ExposedData>> household_cells;
  bool household_open = false;
  for (const auto& device : row.devices) {
    ++agg.devices;
    const DeviceSpec& spec = catalog[device.catalog_index];
    ++agg.devices_by_vendor[spec.vendor];
    for (int bit = 0; bit < 32; ++bit) {
      if ((device.protocols & (1u << bit)) == 0) continue;
      const auto label = static_cast<ProtocolLabel>(bit);
      ++agg.protocols[label].devices;
      household_labels.insert(label);
    }
    for (const auto& cell : device.exposed) {
      ++agg.exposure[cell].devices;
      household_cells.insert(cell);
    }
    if ((device.protocols & kOpenSurfaceMask) != 0) {
      ++agg.open_surface.devices;
      household_open = true;
    }
    partial.fingerprints.add({static_cast<std::size_t>(row.index),
                              device.catalog_index, spec.vendor,
                              {device.ids.begin(), device.ids.end()}});
  }
  for (const auto label : household_labels)
    ++agg.protocols[label].households;
  for (const auto& cell : household_cells)
    ++agg.exposure[cell].households;
  if (household_open) ++agg.open_surface.households;
}

void merge_aggregates(FleetAggregates& into, const FleetAggregates& from) {
  into.households += from.households;
  into.devices += from.devices;
  into.packets += from.packets;
  into.flows += from.flows;
  into.bytes += from.bytes;
  for (const auto& [size, count] : from.household_sizes)
    into.household_sizes[size] += count;
  for (const auto& [vendor, count] : from.devices_by_vendor)
    into.devices_by_vendor[vendor] += count;
  for (const auto& [label, stats] : from.protocols) {
    into.protocols[label].devices += stats.devices;
    into.protocols[label].households += stats.households;
  }
  for (const auto& [cell, stats] : from.exposure) {
    into.exposure[cell].devices += stats.devices;
    into.exposure[cell].households += stats.households;
  }
  into.open_surface.devices += from.open_surface.devices;
  into.open_surface.households += from.open_surface.households;
}

}  // namespace

std::string fleet_config_digest(const FleetConfig& config) {
  obs::CanonicalHasher hasher;
  hasher.str("roomnet-fleet-config-v1");
  hasher.u64(config.seed);
  hasher.u64(config.households);
  // threads and shard_size are deliberately absent: the manifest is how we
  // prove they never change results.
  const HouseholdConfig& h = config.household;
  hasher.i64(h.idle.us());
  hasher.f64(h.boot_window_s);
  hasher.u64(h.min_devices);
  hasher.u64(h.max_devices);
  // Once a batch/streaming mode selector; the tap-time fold is the only
  // path now. The byte stays at the old streaming value so every fleet
  // manifest keeps its config digest.
  hasher.u8(0);
  hasher.u64(h.cache.max_flows);
  hasher.u64(h.cache.memcap_bytes);
  hasher.i64(h.cache.idle_timeout.us());
  hasher.i64(h.cache.established_timeout.us());
  return hasher.hex();
}

FleetResults run_fleet(const FleetConfig& config, exec::TaskPool& pool) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::size_t shard_size = config.shard_size == 0 ? 1 : config.shard_size;
  const std::uint64_t n = config.households;
  const std::size_t shards =
      static_cast<std::size_t>((n + shard_size - 1) / shard_size);

  auto& registry = telemetry::Registry::global();
  auto& households_total =
      registry.counter("roomnet_fleet_households_total");

  ContextPool contexts(config.household.cache);
  const auto& catalog = moniotr_catalog();
  std::vector<ShardPartial> partials(shards);

  {
    const prof::StageScope scope(stages::kFleetRun);
    pool.run_chunks(shards, [&](std::size_t shard) {
      const std::uint64_t begin = shard * shard_size;
      const std::uint64_t end = std::min<std::uint64_t>(begin + shard_size, n);
      ContextPool::Lease lease = contexts.acquire();
      ShardPartial& partial = partials[shard];
      partial.hashes.reserve(static_cast<std::size_t>(end - begin));
      for (std::uint64_t index = begin; index < end; ++index) {
        // Each row is folded into the shard partial and destroyed right
        // here, so in-flight memory holds one HouseholdResult per worker
        // plus the partials — not a row per household.
        fold_household(partial,
                       run_household(config.household, config.seed, index,
                                     lease.context()),
                       catalog);
        households_total.inc();
      }
    });
  }

  FleetResults results;
  {
    const prof::StageScope scope(stages::kFleetReduce);
    FleetAggregates& agg = results.aggregates;
    FingerprintAccumulator fingerprints;
    obs::CanonicalHasher root;
    root.str("roomnet-fleet-rows-v1");
    results.household_hashes.reserve(static_cast<std::size_t>(n));

    for (ShardPartial& partial : partials) {
      for (std::string& hash : partial.hashes) {
        root.str(hash);
        results.household_hashes.push_back(std::move(hash));
      }
      merge_aggregates(agg, partial.agg);
      fingerprints.merge(partial.fingerprints);
      // Release the partial as soon as it is folded so reduce-phase memory
      // stays at one merged accumulator, not partials + merged side by side.
      partial = ShardPartial{};
    }
    agg.fingerprints = fingerprints.finish();

    results.manifest.seed = config.seed;
    results.manifest.households = n;
    results.manifest.config_digest = fleet_config_digest(config);
    results.manifest.households_root = root.hex();
    {
      obs::CanonicalHasher agg_hash;
      agg_hash.str(to_json(agg));
      results.manifest.aggregates_sha256 = agg_hash.hex();
    }
    obs::CanonicalHasher result_hash;
    result_hash.str(results.manifest.config_digest);
    result_hash.str(results.manifest.households_root);
    result_hash.str(results.manifest.aggregates_sha256);
    results.manifest.result_digest = result_hash.hex();
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  results.stats.wall_s = wall_s;
  results.stats.households_per_sec =
      wall_s > 0 ? static_cast<double>(n) / wall_s : 0;
  results.stats.contexts_created = contexts.contexts_created();
  results.stats.context_reuses = contexts.reuses();
  results.stats.threads = pool.threads();
  results.stats.peak_rss_kb = obs::peak_rss_kb();
  registry.gauge("roomnet_fleet_households_per_sec")
      .set(static_cast<std::int64_t>(results.stats.households_per_sec));
  return results;
}

FleetResults run_fleet(const FleetConfig& config) {
  exec::TaskPool pool(config.threads);
  return run_fleet(config, pool);
}

std::string to_json(const FleetAggregates& agg) {
  std::string out = "{\n";
  out += "  \"households\": " + std::to_string(agg.households) + ",\n";
  out += "  \"devices\": " + std::to_string(agg.devices) + ",\n";
  out += "  \"packets\": " + std::to_string(agg.packets) + ",\n";
  out += "  \"flows\": " + std::to_string(agg.flows) + ",\n";
  out += "  \"bytes\": " + std::to_string(agg.bytes) + ",\n";

  out += "  \"household_sizes\": {";
  bool first = true;
  for (const auto& [size, count] : agg.household_sizes) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::to_string(size) + "\":" + std::to_string(count);
  }
  out += "},\n";

  out += "  \"devices_by_vendor\": {";
  first = true;
  for (const auto& [vendor, count] : agg.devices_by_vendor) {
    if (!first) out += ",";
    first = false;
    out += "\"" + escape_json(vendor) + "\":" + std::to_string(count);
  }
  out += "},\n";

  out += "  \"protocols\": [";
  first = true;
  for (const auto& [label, stats] : agg.protocols) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"protocol\":\"" + escape_json(to_string(label)) +
           "\",\"devices\":" + std::to_string(stats.devices) +
           ",\"households\":" + std::to_string(stats.households) + "}";
  }
  out += "\n  ],\n";

  out += "  \"exposure\": [";
  first = true;
  for (const auto& [cell, stats] : agg.exposure) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"protocol\":\"" + escape_json(to_string(cell.first)) +
           "\",\"data\":\"" + escape_json(to_string(cell.second)) +
           "\",\"devices\":" + std::to_string(stats.devices) +
           ",\"households\":" + std::to_string(stats.households) + "}";
  }
  out += "\n  ],\n";

  out += "  \"open_surface\": {\"devices\":" +
         std::to_string(agg.open_surface.devices) +
         ",\"households\":" + std::to_string(agg.open_surface.households) +
         "},\n";

  out += "  \"fingerprints\": {\"rows\": ";
  append_fingerprint_rows(out, agg.fingerprints.rows);
  out += ", \"by_count\": ";
  append_fingerprint_rows(out, agg.fingerprints.by_count);
  out += "}\n";
  out += "}\n";
  return out;
}

std::string to_json(const FleetManifest& manifest) {
  std::string out = "{\n";
  out += "  \"schema\": " + std::to_string(manifest.schema) + ",\n";
  out += "  \"tool\": \"roomnet-fleet\",\n";
  out += "  \"seed\": " + std::to_string(manifest.seed) + ",\n";
  out += "  \"households\": " + std::to_string(manifest.households) + ",\n";
  out += "  \"config_digest\": \"" + manifest.config_digest + "\",\n";
  out += "  \"households_root\": \"" + manifest.households_root + "\",\n";
  out += "  \"aggregates_sha256\": \"" + manifest.aggregates_sha256 + "\",\n";
  out += "  \"result_digest\": \"" + manifest.result_digest + "\"\n";
  out += "}\n";
  return out;
}

}  // namespace roomnet::fleet
