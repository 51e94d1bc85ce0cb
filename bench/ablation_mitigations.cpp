// §7 mitigation ablations: quantifies how much of the paper's threat surface
// each proposed mitigation removes.
//
//   A. iOS-style local-network permission vs Android's side channels
//      (what a scanning app harvests under each model).
//   B. Fleet-wide privacy hardening (randomized hostnames, identifier-free
//      mDNS/UPnP) vs the Table 1 exposure matrix.
//   C. ID randomization vs household fingerprint linkability across two
//      observation snapshots (the cross-device-tracking mitigation).
#include "bench_util.hpp"

using namespace roomnet;
using namespace roomnet::bench;

namespace {

std::size_t exposure_cells(const ExposureMatrix& matrix) {
  std::size_t cells = 0;
  for (const ProtocolLabel protocol : exposure_protocols())
    for (const ExposedData data : exposure_data_types())
      cells += matrix.exposed(protocol, data);
  return cells;
}

/// Devices leaking identifiers through *application-layer* discovery
/// payloads. ARP/DHCP are excluded: those carry the MAC in protocol headers
/// by design and no naming policy removes them (the §7 standards problem).
std::size_t identifier_exposing_devices(const ExposureMatrix& matrix) {
  std::set<MacAddress> devices;
  for (const auto& [key, macs] : matrix.cells) {
    if (key.first == ProtocolLabel::kArp || key.first == ProtocolLabel::kDhcp)
      continue;
    if (key.second == ExposedData::kMac || key.second == ExposedData::kUuid ||
        key.second == ExposedData::kDisplayName)
      devices.insert(macs.begin(), macs.end());
  }
  return devices.size();
}

}  // namespace

int main() {
  header("Ablation (§7)", "how much threat surface each mitigation removes");

  // ---------------------------------------------------------- A: app gate
  {
    Lab lab(LabConfig{.seed = 42, .record_frames = false});
    lab.start_all();
    lab.run_for(SimTime::from_minutes(8));
    AppRunner runner(lab);

    AppSpec scanner;
    scanner.package = "com.ablation.scanner";
    scanner.permissions = {AndroidPermission::kInternet,
                           AndroidPermission::kChangeWifiMulticastState};
    scanner.scans_mdns = true;
    scanner.scans_ssdp = true;
    scanner.uses_tplink = true;
    scanner.uploads_device_macs = true;
    scanner.first_party_endpoint = "collect.example.com";

    const auto harvested = [](const AppRunRecord& record) {
      std::size_t macs = 0;
      for (const auto& access : record.accesses)
        macs += access.data == SensitiveData::kDeviceMac;
      return macs;
    };

    const AppRunRecord android = runner.run(scanner);

    AppSpec ios_blocked = scanner;
    ios_blocked.platform = MobilePlatform::kIos;  // no entitlement
    const AppRunRecord blocked = runner.run(ios_blocked);

    AppSpec ios_granted = ios_blocked;
    ios_granted.ios = {.multicast_entitlement = true,
                       .local_network_consent = true};
    const AppRunRecord granted = runner.run(ios_granted);

    std::printf("\nA. local-network permission model (device MACs harvested "
                "by one scanning app):\n");
    std::printf("   Android 9 (INTERNET+MULTICAST only):   %3zu  <- the §2.1 "
                "bypass, no dangerous permission involved\n",
                harvested(android));
    std::printf("   iOS, entitlement not granted:          %3zu  <- scans "
                "never leave the sandbox\n",
                harvested(blocked));
    std::printf("   iOS, entitlement + user consent:       %3zu  <- consent "
                "moves the decision to the user\n",
                harvested(granted));
  }

  // --------------------------------------------- B: exposure minimization
  {
    std::printf("\nB. fleet-wide data-exposure minimization (Table 1 matrix, "
                "90-minute capture):\n");
    const auto exposure = [](LabConfig config) {
      StreamedLab streamed(config);
      streamed.run(SimTime::from_minutes(90), 150);
      return streamed.finish().exposure;
    };
    const ExposureMatrix base_matrix = exposure({});
    const ExposureMatrix hard_matrix = exposure({.privacy_hardening = true});

    std::printf("   filled exposure cells:      baseline %2zu -> hardened %2zu\n",
                exposure_cells(base_matrix), exposure_cells(hard_matrix));
    std::printf("   devices leaking MAC/UUID/name: baseline %2zu -> hardened "
                "%2zu\n",
                identifier_exposing_devices(base_matrix),
                identifier_exposing_devices(hard_matrix));
    std::printf("   (ARP/DHCP chaddr MACs remain — protocol-inherent, needs "
                "standards work, §7)\n");
  }

  // -------------------------------------------- C: ID randomization
  {
    std::printf("\nC. ID randomization vs cross-snapshot household linkage "
                "(§6.3 tracking):\n");
    const auto fingerprints = [](std::uint64_t payload_salt) {
      Rng rng(2023);  // same households/products...
      InspectorDataset dataset = generate_inspector_dataset(rng);
      // ...but identifier VALUES re-rolled per snapshot when randomized.
      std::map<std::size_t, std::string> by_household;
      for (auto& device : dataset.devices) {
        if (payload_salt != 0) {
          // Simulate per-boot UUID randomization: replace every UUID with a
          // salt-dependent value.
          Rng reroll(payload_salt ^
                     std::hash<std::string>{}(device.device_id));
          const std::string fresh = Uuid::random(reroll).to_string();
          for (auto& payload : device.ssdp_responses) {
            const auto pos = payload.find("uuid:");
            if (pos != std::string::npos && payload.size() >= pos + 41)
              payload.replace(pos + 5, 36, fresh);
          }
        }
        for (const auto& id : device_identifiers(device))
          by_household[device.household] +=
              to_string(id.type) + ":" + id.value + ";";
      }
      return by_household;
    };

    // Baseline: two snapshots of the same homes, persistent IDs.
    const auto week1 = fingerprints(0);
    const auto week2 = fingerprints(0);
    std::size_t linkable_baseline = 0, linkable_randomized = 0, total = 0;
    for (const auto& [household, fp] : week1) {
      if (fp.empty()) continue;
      ++total;
      const auto it = week2.find(household);
      linkable_baseline += it != week2.end() && it->second == fp;
    }
    // Randomized: snapshot 2 re-rolls UUIDs.
    const auto week2r = fingerprints(0x9e3779b9);
    for (const auto& [household, fp] : week1) {
      if (fp.empty()) continue;
      const auto it = week2r.find(household);
      linkable_randomized += it != week2r.end() && it->second == fp;
    }
    std::printf("   households re-identifiable across snapshots:\n");
    std::printf("     persistent IDs (today's firmware):  %zu/%zu (%.0f%%)\n",
                linkable_baseline, total,
                100.0 * static_cast<double>(linkable_baseline) /
                    static_cast<double>(total));
    std::printf("     per-boot randomized UUIDs:          %zu/%zu (%.0f%%)\n",
                linkable_randomized, total,
                100.0 * static_cast<double>(linkable_randomized) /
                    static_cast<double>(total));
    std::printf("   (MAC-exposing products stay linkable until MAC "
                "randomization lands too)\n");
  }
  return 0;
}
