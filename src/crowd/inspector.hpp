// The crowdsourced (IoT Inspector-style) dataset: model + seeded synthetic
// generator calibrated to §3.3/§6.3 marginals — 3,860 fingerprint-analysis
// households, ~12.7K devices (median 3 per household), a long-tailed
// vendor/product distribution, per-product identifier-exposure classes that
// reproduce Table 2's row structure, and HMAC-SHA256 device IDs.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/identifiers.hpp"
#include "netcore/rng.hpp"

namespace roomnet {

struct ProductProfile {
  std::string vendor;
  std::string category;  // "camera", "tv", "plug", ...
  ExposureClass exposure;
  /// Degenerate products ship a constant (shared) UUID/MAC in payloads —
  /// the reason Table 2's uniqueness is below 100%.
  bool constant_uuid = false;
  bool constant_mac = false;
  double popularity = 1.0;  // zipf-ish sampling weight
};

struct InspectorDevice {
  std::string device_id;  // HMAC-SHA256(per-household salt, MAC), truncated
  std::size_t household = 0;
  std::size_t product_index = 0;
  std::uint32_t oui = 0;
  std::string dhcp_hostname;
  std::string user_label;  // noisy crowdsourced label (may be empty/misspelt)
  /// Raw response payload text the entropy analysis parses.
  std::vector<std::string> mdns_responses;
  std::vector<std::string> ssdp_responses;
};

struct InspectorDataset {
  std::vector<ProductProfile> products;
  std::vector<InspectorDevice> devices;
  std::size_t household_count = 0;

  [[nodiscard]] const ProductProfile& product_of(const InspectorDevice& d) const {
    return products[d.product_index];
  }
  [[nodiscard]] std::set<std::string> vendors() const;
  /// Devices per household.
  [[nodiscard]] std::map<std::size_t, std::size_t> household_sizes() const;
};

struct InspectorConfig {
  std::size_t households = 3860;
  std::size_t devices = 12669;
  std::size_t product_count = 264;
  std::size_t vendor_count = 165;
};

InspectorDataset generate_inspector_dataset(Rng& rng,
                                            InspectorConfig config = {});

}  // namespace roomnet
