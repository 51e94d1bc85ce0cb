// One sampled household: a catalog-driven device mix seeded from
// (fleet seed, household index), simulated as a self-contained mini network
// (router + devices on a learning switch), with the per-packet analyses
// folded at tap time behind the context's FlowCache into a compact
// HouseholdResult row — the unit of work the fleet driver shards across the
// exec TaskPool. Per-household memory is O(active flows), never
// O(captured frames).
//
// Reproducibility contract: run_household() depends only on its arguments
// and a fully reset HouseholdContext, never on which worker runs it or what
// ran in the context before, so household k is byte-identical whether run
// alone or inside a 100k-household fleet (FleetSeedIndependence asserts
// this on the row hash).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/exposure.hpp"
#include "analysis/identifiers.hpp"
#include "capture/flow_cache.hpp"
#include "classify/label.hpp"
#include "crowd/inspector.hpp"
#include "netcore/address.hpp"
#include "netcore/rng.hpp"
#include "netcore/time.hpp"

namespace roomnet::fleet {

class HouseholdContext;

struct HouseholdConfig {
  /// Idle-capture window per household. 150 virtual seconds covers DHCP,
  /// the boot-time mDNS/SSDP announcements, and at least one round of every
  /// short-period behavior — the discovery surface the fleet aggregates
  /// measure — while keeping 10k households CI-affordable.
  SimTime idle = SimTime::from_seconds(150);
  double boot_window_s = 20;
  /// Device-count bounds; sampling is median-3 (the IoT Inspector marginal)
  /// clamped into [min_devices, max_devices].
  std::size_t min_devices = 1;
  std::size_t max_devices = 8;
  /// Flow-cache bounds for the household's tap-time fold. The default never
  /// evicts; arming a memcap bounds per-household memory at the cost of
  /// possibly different rows (the knobs are in the fleet config digest).
  FlowCacheConfig cache;
};

/// One device's compact analysis row: everything the fleet reducer needs,
/// in O(identifiers) space — no packets, no flows.
struct HouseholdDevice {
  std::uint32_t catalog_index = 0;  // into moniotr_catalog()
  MacAddress mac;
  /// Bitmask over ProtocolLabel: bit i set when the device was observed
  /// sending protocol i (the per-device half of Figure 2's prevalence).
  std::uint32_t protocols = 0;
  /// Which identifier types this device's own payloads exposed (Table 2).
  ExposureClass exposure;
  /// (protocol, data type) exposure-matrix cells this device contributed to
  /// (Table 1), in cell order.
  std::vector<std::pair<ProtocolLabel, ExposedData>> exposed;
  /// Sorted unique identifiers extracted from its mDNS/SSDP responses.
  std::vector<ExtractedIdentifier> ids;
};

/// The compact per-household result row. `sha256` is a canonical content
/// hash of every other field — the unit the FleetManifest folds and the
/// cross-thread/cross-shard CI comparison keys on.
struct HouseholdResult {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  std::uint64_t packets = 0;  // local-filter matches
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
  std::vector<HouseholdDevice> devices;
  std::string sha256;
};

/// splitmix64 over (fleet_seed, index): any household is independently
/// reconstructible from the fleet seed and its index alone.
[[nodiscard]] std::uint64_t household_seed(std::uint64_t fleet_seed,
                                           std::uint64_t index);

/// Median-3 device count (IoT Inspector's per-household marginal), clamped
/// into [config.min_devices, config.max_devices].
[[nodiscard]] std::size_t sample_household_size(Rng& rng,
                                                const HouseholdConfig& config);

/// Samples, simulates, and analyzes household `index`. The context provides
/// the recycled arenas/flow state and is rewound internally; any prior
/// contents are discarded.
[[nodiscard]] HouseholdResult run_household(const HouseholdConfig& config,
                                            std::uint64_t fleet_seed,
                                            std::uint64_t index,
                                            HouseholdContext& context);

}  // namespace roomnet::fleet
