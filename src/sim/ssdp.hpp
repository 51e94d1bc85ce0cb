// SSDP/UPnP endpoint for a Host: M-SEARCH, NOTIFY announcements, response
// policy, and an HTTP server for the device-description XML at LOCATION.
// Models the §5.1 population: 26/30 SSDP devices send M-SEARCH, 7/30 send
// NOTIFY, only 9 respond to multicast queries; 8 expose UUID/OS/UPnP
// version through the description document.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "proto/ssdp.hpp"
#include "sim/host.hpp"

namespace roomnet {

class SsdpEndpoint {
 public:
  explicit SsdpEndpoint(Host& host);

  /// Installs the description document and starts the HTTP server for it on
  /// `http_port` (the URL advertised in LOCATION headers).
  void set_description(UpnpDeviceDescription description,
                       std::uint16_t http_port = 49152);
  [[nodiscard]] const std::optional<UpnpDeviceDescription>& description() const {
    return description_;
  }

  /// SERVER / USER-AGENT string, e.g. "Linux/4.9 UPnP/1.0 product/1.0".
  /// UPnP version 1.0 here is the §5.1 deprecated-version finding.
  std::string server_string = "Linux, UPnP/1.0, Private UPnP SDK";
  /// Search targets this endpoint matches (plus ssdp:all always matches
  /// when respond_to_msearch is set).
  std::vector<std::string> notification_types{"upnp:rootdevice"};
  bool respond_to_msearch = false;

  /// Multicasts an M-SEARCH from a fresh ephemeral port that listens for
  /// the unicast responses; it closes the port of this target's previous
  /// search, so a periodic searcher holds one socket per target.
  void msearch(const std::string& search_target, int mx = 2);
  void notify_alive();

  /// Observer of every SSDP message seen. The view dies with the delivery.
  std::function<void(const PacketView&, const SsdpView&)> on_message;

 private:
  void handle(const PacketView& packet, const UdpDatagram& udp);
  /// Sends a NOTIFY or response for `nt`, built in out_ and encoded into
  /// wire_: both keep their capacity, so a steady sender allocates nothing.
  void send(SsdpKind kind, std::string_view nt, Ipv4Address to,
            std::uint16_t sport, std::uint16_t dport);

  Host* host_;
  std::optional<UpnpDeviceDescription> description_;
  std::uint16_t http_port_ = 49152;
  SsdpMessage out_;
  Bytes wire_;
  /// Search target -> the port its latest M-SEARCH listens on.
  std::map<std::string, std::uint16_t, std::less<>> search_ports_;
};

}  // namespace roomnet
