#include "classify/response.hpp"

#include <deque>

namespace roomnet {

namespace {
/// Table 4 excludes the protocols "used by most of the devices".
bool counts_for_table4(ProtocolLabel label) {
  switch (label) {
    case ProtocolLabel::kArp:
    case ProtocolLabel::kDhcp:
    case ProtocolLabel::kIcmp:
    case ProtocolLabel::kIcmpv6:
    case ProtocolLabel::kIgmp:
      return false;
    default:
      return is_discovery_protocol(label);
  }
}
}  // namespace

void ResponseCorrelator::on_packet(SimTime at, const PacketView& packet) {
  // Expire old discoveries.
  while (!recent_.empty() && at - recent_.front().at > window_)
    recent_.pop_front();

  const ProtocolLabel label = classifier_.classify_packet(packet);
  const bool is_multicast_out = packet.eth.dst.is_multicast();

  if (is_multicast_out && counts_for_table4(label) && packet.has_transport()) {
    DiscoveryEvent ev;
    ev.at = at;
    ev.discoverer = packet.eth.src;
    ev.protocol = label;
    ev.port = value(*packet.src_port());
    stats_.discovery_protocols[ev.discoverer].insert(label);
    recent_.push_back(ev);
    return;
  }
  // Track discovery protocol *usage* even when broadcast-only (e.g.
  // TPLINK over subnet broadcast arrives as eth broadcast => multicast bit
  // set, handled above). Unicast discovery queries still count as usage.
  if (counts_for_table4(label) && packet.has_transport() &&
      !packet.eth.dst.is_multicast()) {
    // Candidate response: unicast, same transport/port, within window.
    for (const auto& ev : recent_) {
      if (ev.discoverer != packet.eth.dst) continue;
      if (packet.eth.src == ev.discoverer) continue;
      const std::uint16_t dst_port = value(*packet.dst_port());
      if (dst_port != ev.port && value(*packet.src_port()) != ev.port)
        continue;
      stats_.answered_protocols[ev.discoverer].insert(ev.protocol);
      stats_.responders[ev.discoverer].insert(packet.eth.src);
      stats_.matches.push_back({ev, packet.eth.src, at});
      break;
    }
  }
}

}  // namespace roomnet
