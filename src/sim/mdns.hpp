// mDNS endpoint: service advertisement, querying, and response policy for a
// Host. Encapsulates the behaviors §5.1 measures — 90% of mDNS devices send
// queries, ~98% multicast responses, ~20% also unicast responses — and the
// hostname construction policies (MAC-embedding, user display names) that
// feed the fingerprinting analysis.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "proto/dns.hpp"
#include "sim/host.hpp"

namespace roomnet {

/// One advertised service instance.
struct MdnsService {
  std::string instance;      // "Philips Hue - 685F61"
  std::string service_type;  // "_hue._tcp.local"
  std::uint16_t port = 80;
  std::vector<std::string> txt;  // "bridgeid=...", "model=..."
};

class MdnsEndpoint {
 public:
  explicit MdnsEndpoint(Host& host);

  /// The .local hostname of the A record ("Philips-hue.local").
  void set_hostname(std::string hostname) {
    hostname_ = std::move(hostname);
    answers_.clear();
  }
  [[nodiscard]] const std::string& hostname() const { return hostname_; }
  void add_service(MdnsService service) { services_.push_back(std::move(service)); }
  [[nodiscard]] const std::vector<MdnsService>& services() const { return services_; }

  /// Response policy (§5.1 population statistics).
  bool answer_multicast = true;
  bool answer_unicast = false;

  /// Sends a PTR query for a service type; honors the QU (unicast) bit.
  void query(const std::string& service_type, bool unicast_response = false);
  /// Unsolicited announcement of all services.
  void announce();

  /// Observer of every mDNS message seen (for scanners/SDK models). The
  /// view dies with the delivery.
  std::function<void(const PacketView&, const DnsView&)> on_message;

 private:
  void handle(const PacketView& packet);
  [[nodiscard]] DnsMessage build_answer(const MdnsService& service) const;
  /// services_[i]'s answer, encoded once for the host's current address
  /// state (IPv4 address, IPv6 on or off) and hostname.
  const Bytes& answer(std::size_t i);

  Host* host_;
  std::string hostname_;
  std::vector<MdnsService> services_;
  // One encoded answer per service (empty until first sent), valid for the
  // address state below; set_hostname clears it, add_service grows it.
  std::vector<Bytes> answers_;
  Ipv4Address answers_ip_;
  bool answers_v6_ = false;
};

}  // namespace roomnet
