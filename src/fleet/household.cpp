#include "fleet/household.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>

#include "analysis/overview.hpp"
#include "capture/filter.hpp"
#include "fleet/context.hpp"
#include "obs/manifest.hpp"
#include "testbed/lab.hpp"

namespace roomnet::fleet {

namespace {

// The protocol bitmask is a uint32; every label must fit.
static_assert(static_cast<int>(ProtocolLabel::kAmazonAws) < 32);

std::string row_hash(const HouseholdResult& result) {
  obs::CanonicalHasher hasher;
  hasher.u64(result.index);
  hasher.u64(result.seed);
  hasher.u64(result.packets);
  hasher.u64(result.flows);
  hasher.u64(result.bytes);
  hasher.u64(result.devices.size());
  for (const auto& device : result.devices) {
    hasher.u32(device.catalog_index);
    hasher.u64(device.mac.to_u64());
    hasher.u32(device.protocols);
    hasher.boolean(device.exposure.name);
    hasher.boolean(device.exposure.uuid);
    hasher.boolean(device.exposure.mac);
    hasher.u64(device.exposed.size());
    for (const auto& [protocol, data] : device.exposed) {
      hasher.u32(static_cast<std::uint32_t>(protocol));
      hasher.u32(static_cast<std::uint32_t>(data));
    }
    hasher.u64(device.ids.size());
    for (const auto& id : device.ids) {
      hasher.u8(static_cast<std::uint8_t>(id.type));
      hasher.str(id.value);
    }
  }
  return hasher.hex();
}

}  // namespace

std::uint64_t household_seed(std::uint64_t fleet_seed, std::uint64_t index) {
  // splitmix64 step over the pair.
  std::uint64_t x = fleet_seed + 0x9e3779b97f4a7c15ull * (index + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::size_t sample_household_size(Rng& rng, const HouseholdConfig& config) {
  // Weighted sizes 1..8 with median 3 and a long tail: P(<=2)=5/17,
  // P(<=3)=9/17 — the IoT Inspector per-household marginal's shape.
  static constexpr int kWeights[] = {2, 3, 4, 3, 2, 1, 1, 1};
  int total = 0;
  for (const int w : kWeights) total += w;
  int draw = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
  std::size_t size = 1;
  for (const int w : kWeights) {
    if (draw < w) break;
    draw -= w;
    ++size;
  }
  return std::clamp(size, config.min_devices, config.max_devices);
}

HouseholdResult run_household(const HouseholdConfig& config,
                              std::uint64_t fleet_seed, std::uint64_t index,
                              HouseholdContext& ctx) {
  if (config.max_devices < config.min_devices)
    throw std::invalid_argument("household max_devices below min_devices");
  HouseholdResult result;
  result.index = index;
  result.seed = household_seed(fleet_seed, index);
  Rng rng(result.seed);
  const auto& catalog = moniotr_catalog();

  // ---- Sample the device mix (catalog indices, uniform).
  result.devices.resize(sample_household_size(rng, config));
  for (auto& device : result.devices)
    device.catalog_index =
        static_cast<std::uint32_t>(rng.below(catalog.size()));

  ctx.begin_household();

  // ---- Build the home through the testbed's shared construction; only the
  // MACs are the household's own.
  EventLoop loop;
  Switch net(loop);
  Router router(net, kRouterMac, kRouterIp);

  const auto& registry = OuiRegistry::builtin();
  DeviceList devices;
  devices.reserve(result.devices.size());
  std::set<std::uint64_t> used_macs;
  for (auto& row : result.devices) {
    const DeviceSpec& spec = catalog[row.catalog_index];
    const std::uint32_t oui = registry.oui_of(spec.vendor).value_or(0x02a0fe);
    // Household-specific MAC tails: real fleets never share NIC suffixes, so
    // payload-embedded MACs must differ across households for the entropy
    // analysis to mean anything. Redraw on the (rare) intra-household clash.
    std::uint64_t mac_value = 0;
    do {
      mac_value = (static_cast<std::uint64_t>(oui) << 24) |
                  (rng.below(0xfffffe) + 1);
    } while (!used_macs.insert(mac_value).second);
    row.mac = MacAddress::from_u64(mac_value);
    devices.push_back(std::make_unique<TestbedDevice>(
        net, spec, behavior_for(spec, row.catalog_index), row.mac, rng));
  }
  assign_static_ips(devices);
  wire_platform_clusters(devices);

  // ---- Analysis fold: one pass per local packet, at tap time.
  ProtocolUsageBuilder usage;
  ExposureBuilder exposure;

  const LocalFilter filter;
  net.add_packet_tap(
      [&](SimTime at, const PacketView& packet, BytesView raw) {
        if (!filter.matches(packet)) return;
        ++result.packets;
        result.bytes += raw.size();
        // The router is outside the device population: not worth a classify.
        if (packet.eth.src != kRouterMac) usage.on_packet(packet);
        exposure.on_packet(packet);
        ctx.cache.add(at, packet);
      });

  // ---- Boot (staggered DHCP) and idle.
  schedule_staggered_boot(loop, devices, rng, config.boot_window_s);
  loop.run_until(config.idle);

  ctx.cache.flush();
  result.flows = ctx.cache.stats().flows_created;

  // ---- Assemble the compact row.
  const ProtocolUsage protocols = usage.finish();
  const ExposureMatrix matrix = exposure.finish();
  for (auto& device : result.devices) {
    if (const auto it = protocols.by_device.find(device.mac);
        it != protocols.by_device.end()) {
      for (const ProtocolLabel label : it->second)
        device.protocols |= 1u << static_cast<int>(label);
    }
    if (const auto it = matrix.identifiers.find(device.mac);
        it != matrix.identifiers.end()) {
      device.ids.assign(it->second.begin(), it->second.end());
      device.exposure = exposure_class(it->second);
    }
    for (const auto& [cell, macs] : matrix.cells)
      if (macs.count(device.mac) != 0) device.exposed.push_back(cell);
  }
  result.sha256 = row_hash(result);
  return result;
}

}  // namespace roomnet::fleet
