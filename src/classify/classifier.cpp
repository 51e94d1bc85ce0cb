#include "classify/classifier.hpp"

#include "proto/app.hpp"
#include "proto/coap.hpp"
#include "proto/dhcp.hpp"
#include "proto/dhcpv6.hpp"
#include "proto/dns.hpp"
#include "proto/matter.hpp"
#include "proto/http.hpp"
#include "proto/media.hpp"
#include "proto/netbios.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {

namespace {

/// Shared L2/L3 classification (both tools agree below the transport layer,
/// with the one documented deep-classifier exception handled by its caller).
std::optional<ProtocolLabel> classify_l2_l3(const PacketView& packet) {
  if (packet.arp) return ProtocolLabel::kArp;
  if (packet.eapol) return ProtocolLabel::kEapol;
  if (packet.llc)
    return packet.llc->is_xid ? ProtocolLabel::kXidLlc : ProtocolLabel::kUnknownL3;
  if (packet.icmp) return ProtocolLabel::kIcmp;
  if (packet.icmpv6) return ProtocolLabel::kIcmpv6;
  if (packet.igmp) return ProtocolLabel::kIgmp;
  if (!packet.has_ip()) return ProtocolLabel::kUnknownL3;
  return std::nullopt;  // transport layer present; caller decides
}

bool payload_is_tuya(BytesView payload) {
  return payload.size() >= 4 && payload[0] == 0x00 && payload[1] == 0x00 &&
         payload[2] == 0x55 && payload[3] == 0xaa;
}

bool payload_is_coap(BytesView payload) {
  return !payload.empty() && (payload[0] >> 6) == 1 && payload.size() >= 4;
}

/// `msg` is a decoded DNS message (pointer or optional), empty if none.
template <class Message>
bool dns_signature(const Message& msg) {
  // A bare header with zero counts parses "successfully" but is not a DNS
  // signature match (randomish payloads hit it).
  return msg && (!msg->questions.empty() || !msg->answers.empty() ||
                 !msg->authority.empty() || !msg->additional.empty());
}

bool in_google_sync_range(std::uint16_t port) {
  return port >= 10000 && port <= 10010;
}

/// Stricter RTP signature than looks_like_rtp: fixed first byte 0x80 (no
/// padding/extension/CSRC) and a dynamic payload type, cutting the false
/// positives random binary beacons would otherwise produce (1-in-4 of them
/// start 0b10xxxxxx).
bool strict_rtp(BytesView payload) {
  return payload.size() >= 12 && payload[0] == 0x80 &&
         (payload[1] & 0x7f) >= 96;
}

}  // namespace

// ---------------------------------------------------------- SpecClassifier

ProtocolLabel SpecClassifier::classify_packet(const PacketView& packet) const {
  if (const auto l2 = classify_l2_l3(packet)) return *l2;
  if (!packet.has_transport())
    return packet.ipv4 || packet.ipv6 ? ProtocolLabel::kUnknown
                                      : ProtocolLabel::kUnknownL3;

  const std::uint16_t sport = value(*packet.src_port());
  const std::uint16_t dport = value(*packet.dst_port());
  const BytesView payload = packet.app_payload();
  const bool udp = packet.udp.has_value();

  const auto port_match = [&](std::uint16_t p) {
    return sport == p || dport == p;
  };

  if (udp) {
    if (port_match(kDhcpServerPort) || port_match(kDhcpClientPort))
      return ProtocolLabel::kDhcp;
    if (port_match(546) || port_match(547)) return ProtocolLabel::kDhcpv6;
    if (port_match(kMdnsPort)) return ProtocolLabel::kMdns;
    if (port_match(53)) return ProtocolLabel::kDns;
    if (port_match(kSsdpPort)) return ProtocolLabel::kSsdp;
    if (port_match(kNetbiosNsPort)) return ProtocolLabel::kNetbios;
    if (port_match(kCoapPort)) return ProtocolLabel::kCoap;
    if (port_match(kTuyaPortPlain) || port_match(kTuyaPortEncrypted))
      return ProtocolLabel::kTuyaLp;
    if (port_match(kTplinkPort)) return ProtocolLabel::kTplinkShp;
    if (in_google_sync_range(dport) || in_google_sync_range(sport))
      return ProtocolLabel::kStun;  // both tools' documented Google mislabel
    if (port_match(5540)) return ProtocolLabel::kMatter;
    // tshark's over-eager TP-Link dissector: first ciphertext byte match.
    if (!payload.empty() && payload[0] == 0xd0) return ProtocolLabel::kTplinkShp;
    return ProtocolLabel::kGenericUdp;
  }

  // TCP
  if (port_match(80) || port_match(8080)) return ProtocolLabel::kHttp;
  if (port_match(443) || port_match(8443) || port_match(8009) ||
      port_match(55442) || port_match(55443) || port_match(4070))
    return ProtocolLabel::kTls;
  if (port_match(23)) return ProtocolLabel::kTelnet;
  if (port_match(kTplinkPort)) return ProtocolLabel::kTplinkShp;
  if (port_match(5540)) return ProtocolLabel::kMatter;  // Matter operational port
  return ProtocolLabel::kGenericTcp;
}

ProtocolLabel SpecClassifier::classify_flow(const Flow& flow) const {
  // Spec tools label a FLOW from the service (destination) port of its first
  // packet. This is precisely how a unicast SSDP *response* flow — whose
  // "server" side is the searcher's ephemeral port — ends up as generic
  // "transport-layer traffic" in tshark (Appendix C.2's dominant error),
  // while the per-packet dissector would have gotten it right.
  if (flow.packets.empty()) return ProtocolLabel::kUnknown;
  const bool udp = flow.key.protocol == static_cast<std::uint8_t>(IpProto::kUdp);
  const std::uint16_t service_port = value(flow.key.server_port);
  const BytesView payload = flow.first_client_payload();

  if (udp) {
    switch (service_port) {
      case kDhcpServerPort:
      case kDhcpClientPort: return ProtocolLabel::kDhcp;
      case 546:
      case 547: return ProtocolLabel::kDhcpv6;
      case kMdnsPort: return ProtocolLabel::kMdns;
      case 53: return ProtocolLabel::kDns;
      case kSsdpPort: return ProtocolLabel::kSsdp;
      case kNetbiosNsPort: return ProtocolLabel::kNetbios;
      case kCoapPort: return ProtocolLabel::kCoap;
      case kTuyaPortPlain:
      case kTuyaPortEncrypted: return ProtocolLabel::kTuyaLp;
      case kTplinkPort: return ProtocolLabel::kTplinkShp;
      case 5540: return ProtocolLabel::kMatter;
      default: break;
    }
    if (in_google_sync_range(service_port)) return ProtocolLabel::kStun;
    // tshark's over-eager TP-Link dissector (fires on the ciphertext byte).
    if (!payload.empty() && payload[0] == 0xd0) return ProtocolLabel::kTplinkShp;
    return ProtocolLabel::kGenericUdp;
  }
  switch (service_port) {
    case 80:
    case 8080: return ProtocolLabel::kHttp;
    case 443:
    case 8443:
    case 8009:
    case 55442:
    case 55443:
    case 4070: return ProtocolLabel::kTls;
    case 23: return ProtocolLabel::kTelnet;
    case kTplinkPort: return ProtocolLabel::kTplinkShp;
    case 5540: return ProtocolLabel::kMatter;
    default: break;
  }
  if (!payload.empty() && payload[0] == 0xd0) return ProtocolLabel::kTplinkShp;
  return ProtocolLabel::kGenericTcp;
}

// ---------------------------------------------------------- DeepClassifier

namespace {

/// A packet's app-layer decodes come from its frame's shared memo.
struct FrameDecodes {
  const PacketView& packet;
  const DnsView* dns() const { return dns_of(packet); }
  const SsdpView* ssdp() const { return ssdp_of(packet); }
  const DhcpMessage* dhcp() const { return dhcp_of(packet); }
};

/// A flow's stored payload is not a frame: read its bytes directly.
struct PayloadDecodes {
  BytesView payload;
  std::optional<DnsView> dns() const { return view_dns(payload); }
  std::optional<SsdpView> ssdp() const { return view_ssdp(payload); }
  std::optional<DhcpMessage> dhcp() const { return decode_dhcp(payload); }
};

template <class Decodes>
ProtocolLabel deep_classify_payload(BytesView payload, std::uint16_t sport,
                                    std::uint16_t dport, bool udp,
                                    const Decodes& app) {
  if (payload.empty())
    return udp ? ProtocolLabel::kGenericUdp : ProtocolLabel::kGenericTcp;

  // SSDP before generic HTTP: shares the HTTP framing.
  if (looks_like_http(payload)) {
    const auto ssdp = app.ssdp();
    if (ssdp) {
      // Documented nDPI error: IGD-targeted discovery matches the CiscoVPN
      // signature.
      if (ssdp->search_target.find("InternetGatewayDevice") !=
          std::string_view::npos)
        return ProtocolLabel::kCiscoVpn;
      return ProtocolLabel::kSsdp;
    }
    return ProtocolLabel::kHttp;
  }
  if (looks_like_tls(payload)) return ProtocolLabel::kTls;
  if (udp && dns_signature(app.dns())) {
    if (sport == kMdnsPort || dport == kMdnsPort) return ProtocolLabel::kMdns;
    return ProtocolLabel::kDns;
  }
  if (udp && app.dhcp()) return ProtocolLabel::kDhcp;
  if (udp && (sport == kDhcpv6ClientPort || dport == kDhcpv6ServerPort ||
              dport == kDhcpv6ClientPort) &&
      decode_dhcpv6(payload))
    return ProtocolLabel::kDhcpv6;
  if (udp && (sport == kMatterPort || dport == kMatterPort) &&
      looks_like_matter(payload))
    return ProtocolLabel::kMatter;
  if (udp && payload_is_tuya(payload)) return ProtocolLabel::kTuyaLp;
  if (udp && is_netbios_wildcard_scan(payload)) return ProtocolLabel::kNetbios;
  if (udp && decode_netbios(payload)) return ProtocolLabel::kNetbios;
  if (udp && payload_is_coap(payload) &&
      (sport == kCoapPort || dport == kCoapPort))
    return ProtocolLabel::kCoap;
  if (looks_like_stun(payload)) return ProtocolLabel::kStun;
  if (udp && strict_rtp(payload)) {
    // Appendix C.2: Google's UDP 10000-10010 control traffic is RTP but both
    // tools call it STUN.
    if (in_google_sync_range(sport) || in_google_sync_range(dport))
      return ProtocolLabel::kStun;
    return ProtocolLabel::kRtp;
  }
  // TPLINK: decrypt and check for JSON (true payload signature).
  if (!payload.empty() && payload[0] == 0xd0) {
    const Bytes plain = tplink_decrypt(payload);
    if (!plain.empty() && plain[0] == '{' &&
        json::parse(string_of(BytesView(plain))))
      return ProtocolLabel::kTplinkShp;
  }
  // TCP TPLINK framing: 4-byte length then ciphertext.
  if (!udp && payload.size() > 4) {
    const auto body = decode_tplink_tcp(payload);
    if (body) return ProtocolLabel::kTplinkShp;
  }
  if (!udp && payload.size() > 2 &&
      (sport == 23 || dport == 23))
    return ProtocolLabel::kTelnet;
  return ProtocolLabel::kUnknown;
}

}  // namespace

ProtocolLabel DeepClassifier::classify_packet(const PacketView& packet) const {
  if (packet.eapol) {
    // Documented nDPI error: Nintendo Switch EAPOL matched an AmazonAWS
    // signature. We reproduce it for consoles via the OUI registry.
    const auto vendor = OuiRegistry::builtin().vendor_of(packet.eth.src);
    if (vendor == "Nintendo") return ProtocolLabel::kAmazonAws;
    return ProtocolLabel::kEapol;
  }
  if (const auto l2 = classify_l2_l3(packet)) return *l2;
  if (!packet.has_transport()) return ProtocolLabel::kUnknown;
  const AppScope scope(packet);
  return deep_classify_payload(packet.app_payload(), value(*packet.src_port()),
                               value(*packet.dst_port()),
                               packet.udp.has_value(), FrameDecodes{packet});
}

ProtocolLabel DeepClassifier::classify_flow(const Flow& flow) const {
  static telemetry::Counter& uncarried = telemetry::Registry::global().counter(
      "roomnet_classify_flow_uncarried_payloads_total");
  const bool udp = flow.key.protocol == static_cast<std::uint8_t>(IpProto::kUdp);
  // A payload's carried label is what classify_packet said of its frame:
  // deep_classify_payload over the same bytes, with the sending side's port
  // first — exactly the call below.
  const auto classify = [&](BytesView payload, ProtocolLabel carried,
                            Port sport, Port dport) {
    if (carried != kNoCarriedLabel) return carried;
    if (!payload.empty()) uncarried.inc();
    return deep_classify_payload(payload, value(sport), value(dport), udp,
                                 PayloadDecodes{payload});
  };
  // nDPI inspects the first payload-bearing packets in both directions.
  const ProtocolLabel from_client =
      classify(flow.first_client_payload(), flow.first_client_label,
               flow.key.client_port, flow.key.server_port);
  if (from_client != ProtocolLabel::kUnknown &&
      from_client != ProtocolLabel::kGenericUdp &&
      from_client != ProtocolLabel::kGenericTcp)
    return from_client;
  const BytesView server = flow.first_server_payload();
  if (!server.empty()) {
    const ProtocolLabel from_server =
        classify(server, flow.first_server_label, flow.key.server_port,
                 flow.key.client_port);
    if (from_server != ProtocolLabel::kUnknown &&
        from_server != ProtocolLabel::kGenericUdp &&
        from_server != ProtocolLabel::kGenericTcp)
      return from_server;
  }
  return from_client;
}

// -------------------------------------------------------- HybridClassifier

namespace {

/// The hybrid's packet rules over the packet's deep label. `spec_label()`
/// gives the spec label and is asked only for the fallback.
template <class SpecLabel>
ProtocolLabel hybrid_packet_label(const PacketView& packet, ProtocolLabel deep,
                                  SpecLabel spec_label) {
  // Manual rules (§3.5): correct the documented deep errors.
  if (deep == ProtocolLabel::kCiscoVpn) return ProtocolLabel::kSsdp;
  if (deep == ProtocolLabel::kAmazonAws) return ProtocolLabel::kEapol;
  if (deep == ProtocolLabel::kStun && packet.udp &&
      strict_rtp(packet.app_payload()) &&
      !looks_like_stun(packet.app_payload()))
    return ProtocolLabel::kRtp;
  if (deep == ProtocolLabel::kUnknown) {
    const ProtocolLabel spec = spec_label();
    if (spec != ProtocolLabel::kGenericUdp && spec != ProtocolLabel::kGenericTcp)
      return spec;
  }
  return deep;  // an UNKNOWN stays: the paper reports unclassifiable traffic
}

}  // namespace

ProtocolLabel HybridClassifier::classify_packet(const PacketView& packet) const {
  return hybrid_packet_label(packet, deep_.classify_packet(packet),
                             [&] { return spec_.classify_packet(packet); });
}

FrameLabels classify_frame(const PacketView& packet) {
  FrameLabels labels;
  labels.spec = SpecClassifier{}.classify_packet(packet);
  labels.deep = DeepClassifier{}.classify_packet(packet);
  labels.hybrid =
      hybrid_packet_label(packet, labels.deep, [&] { return labels.spec; });
  return labels;
}

ProtocolLabel HybridClassifier::classify_flow(const Flow& flow) const {
  ProtocolLabel label = deep_.classify_flow(flow);
  if (label == ProtocolLabel::kCiscoVpn) return ProtocolLabel::kSsdp;
  if (label == ProtocolLabel::kAmazonAws) return ProtocolLabel::kEapol;
  if (label == ProtocolLabel::kStun) {
    const BytesView payload = flow.first_client_payload();
    if (strict_rtp(payload) && !looks_like_stun(payload))
      return ProtocolLabel::kRtp;
  }
  if (label == ProtocolLabel::kUnknown ||
      label == ProtocolLabel::kGenericUdp ||
      label == ProtocolLabel::kGenericTcp) {
    const ProtocolLabel spec = spec_.classify_flow(flow);
    if (spec != ProtocolLabel::kGenericUdp && spec != ProtocolLabel::kGenericTcp)
      return spec;
  }
  return label;
}

}  // namespace roomnet
