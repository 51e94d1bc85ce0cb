// Table 4 / Appendix D.2: discovery protocols used per device category
// (excluding ARP/DHCP/ICMPx), how many of those elicited responses, and how
// many distinct devices responded — via the 3-second correlation window.
// Paper: Amazon Echo 3.65 discovery protocols / 1.82 answered / 9.47
// responders; Google 4.0/3.0/5.14; Apple 1.0/1.0/5.0; Tuya 1.0/0/0.
#include "bench_util.hpp"

using namespace roomnet;
using namespace roomnet::bench;

namespace {
std::string group_of(const DeviceSpec& spec) {
  if (spec.vendor == "Amazon") return "Amazon Echo";
  if (spec.vendor == "Google") return "Google&Nest";
  if (spec.vendor == "Apple") return "Apple";
  if (spec.vendor == "Tuya") return "Tuya";
  if (spec.category == DeviceCategory::kMediaTv) return "TVs";
  if (spec.category == DeviceCategory::kSurveillance) return "Cameras";
  if (spec.model.find("Hub") != std::string::npos) return "Hubs";
  if (spec.category == DeviceCategory::kHomeAutomation) return "Home Auto";
  if (spec.category == DeviceCategory::kHomeAppliance) return "Appliances";
  return "Other";
}
}  // namespace

int main() {
  header("Table 4", "discovery protocols and responses per device group");
  StreamedLab streamed;
  streamed.run(SimTime::from_hours(3));

  const ResponseStats stats = streamed.finish().responses;

  struct GroupAgg {
    double protocols = 0;
    double answered = 0;
    double responders = 0;
    int devices = 0;
  };
  std::map<std::string, GroupAgg> groups;
  for (const auto& device : streamed.lab.devices()) {
    const std::string group = group_of(device->spec());
    auto& agg = groups[group];
    ++agg.devices;
    const auto protocols = stats.discovery_protocols.find(device->mac());
    if (protocols != stats.discovery_protocols.end())
      agg.protocols += static_cast<double>(protocols->second.size());
    const auto answered = stats.answered_protocols.find(device->mac());
    if (answered != stats.answered_protocols.end())
      agg.answered += static_cast<double>(answered->second.size());
    const auto responders = stats.responders.find(device->mac());
    if (responders != stats.responders.end())
      agg.responders += static_cast<double>(responders->second.size());
  }

  const std::map<std::string, std::array<double, 3>> paper = {
      {"Amazon Echo", {3.65, 1.82, 9.47}}, {"Google&Nest", {4.0, 3.0, 5.14}},
      {"Apple", {1.0, 1.0, 5.0}},          {"Tuya", {1.0, 0.0, 0.0}},
      {"TVs", {1.4, 1.0, 2.0}},            {"Cameras", {1.17, 1.0, 1.5}},
      {"Hubs", {1.5, 0.0, 0.0}},           {"Home Auto", {1.0, 1.0, 1.0}},
      {"Appliances", {2.0, 0.0, 0.0}}};

  std::printf("\n%-12s | %9s %9s | %9s %9s | %10s %10s\n", "group",
              "#disc(m)", "#disc(p)", "#resp(m)", "#resp(p)", "#dev(m)",
              "#dev(p)");
  for (const auto& [group, agg] : groups) {
    const double n = agg.devices;
    scalar(group + "_discovery_protocols", agg.protocols / n);
    scalar(group + "_answered_protocols", agg.answered / n);
    scalar(group + "_responders", agg.responders / n);
    const auto it = paper.find(group);
    if (it != paper.end()) {
      std::printf("%-12s | %9.2f %9.2f | %9.2f %9.2f | %10.2f %10.2f\n",
                  group.c_str(), agg.protocols / n, it->second[0],
                  agg.answered / n, it->second[1], agg.responders / n,
                  it->second[2]);
    } else {
      std::printf("%-12s | %9.2f %9s | %9.2f %9s | %10.2f %10s\n",
                  group.c_str(), agg.protocols / n, "-", agg.answered / n, "-",
                  agg.responders / n, "-");
    }
  }
  std::printf("\n(per-device averages; ARP/DHCP/ICMPx excluded as in the "
              "paper; 3 s response window)\n");
  std::printf("total response matches observed: %zu\n", stats.matches.size());
  scalar("response_matches", static_cast<double>(stats.matches.size()));
  return 0;
}
