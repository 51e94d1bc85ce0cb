// Contract fuzz of the frame decode. On every input, decode_frame_view must
// produce a PacketView whose views all lie inside the input, each inside its
// parent layer; at most one layer per level; every present layer exactly
// what its standalone decoder makes of the parent's payload; a wire_proto
// bucket that agrees with the present layers; and app-layer accessors
// (dns_of, ssdp_of, dhcp_of) that agree with a direct decode of the
// payload and return the same object when asked again. DESIGN.md §13
// states the contract; the capture hot path relies on it. The decode must
// also match the reference frame decoder (reference_frame_codecs.hpp)
// layer for layer, field for field and slice for slice.
#include <functional>

#include "harness.hpp"
#include "netcore/packet_view.hpp"
#include "proto/app.hpp"
#include "reference_frame_codecs.hpp"

namespace roomnet::fuzz {

namespace {

constexpr char kName[] = "frame";

/// Empty views point nowhere that could be read, so they are inside anything.
bool inside(BytesView inner, BytesView outer) {
  if (inner.empty()) return true;
  const std::less_equal<const std::uint8_t*> le;
  return le(outer.data(), inner.data()) &&
         le(inner.data() + inner.size(), outer.data() + outer.size());
}

/// An absent layer holds trivially; a present one's view must lie inside
/// its parent's payload.
template <typename Layer>
bool within(const std::optional<Layer>& layer, BytesView Layer::*view,
            BytesView parent) {
  return !layer || inside((*layer).*view, parent);
}

using reference::same;

/// An absent layer holds trivially; a present one must equal the standalone
/// decode of its parent's payload.
template <typename Layer, typename Decode>
bool decodes_as(const std::optional<Layer>& layer, BytesView parent,
                Decode decode) {
  if (!layer) return true;
  const auto alone = decode(parent);
  return alone.has_value() && same(*layer, *alone);
}

/// The bucket of the deepest present layer (at most one per level).
WireProto deepest_proto(const PacketView& p) {
  if (p.udp) return WireProto::kUdp;
  if (p.tcp) return WireProto::kTcp;
  if (p.icmp) return WireProto::kIcmp;
  if (p.icmpv6) return WireProto::kIcmpv6;
  if (p.igmp) return WireProto::kIgmp;
  if (p.ipv4 || p.ipv6) return WireProto::kIpOther;
  if (p.arp) return WireProto::kArp;
  if (p.eapol) return WireProto::kEapol;
  if (p.llc) return WireProto::kLlc;
  return WireProto::kOther;
}

DnsMessage owned(const DnsView& view) { return view.to_message(); }
SsdpMessage owned(const SsdpView& view) { return view.to_message(); }
const DhcpMessage& owned(const DhcpMessage& message) { return message; }

/// The memoized accessor agrees with a direct decode of the payload: same
/// presence, same re-encoded bytes; and a second ask returns the same object.
template <typename Memo, typename Message>
bool memo_agrees(const PacketView& p,
                 const Memo* (*memoized)(const PacketView&),
                 std::optional<Message> (*decode)(BytesView),
                 Bytes (*encode)(const Message&)) {
  const Memo* first = memoized(p);
  const auto direct = decode(p.app_payload());
  if ((first != nullptr) != direct.has_value()) return false;
  if (memoized(p) != first) return false;
  return first == nullptr || encode(owned(*first)) == encode(*direct);
}

}  // namespace

const char* frame_contract_violation(BytesView raw) {
  const auto p = decode_frame_view(raw);
  if (const char* diff =
          reference::view_differs(p, reference::decode_frame_view(raw)))
    return diff;
  const auto eth = decode_ethernet(raw);
  if (p.has_value() != eth.has_value())
    return "frame accepted unless its Ethernet layer is rejected";
  if (!p) return nullptr;
  if (!same(p->eth, *eth)) return "eth differs from decode_ethernet";
  if (!inside(p->eth.payload, raw)) return "eth.payload outside the input";

  const int network = p->arp.has_value() + p->llc.has_value() +
                      p->eapol.has_value() + p->ipv4.has_value() +
                      p->ipv6.has_value();
  const int transport = p->udp.has_value() + p->tcp.has_value() +
                        p->icmp.has_value() + p->icmpv6.has_value() +
                        p->igmp.has_value();
  if (network > 1) return "more than one network layer";
  if (transport > 1) return "more than one transport layer";
  if (transport > 0 && !p->has_ip()) return "transport layer without IP";
  if (transport > 0 && p->ipv4 && p->ipv4->fragment_offset != 0)
    return "transport layer decoded from a non-first fragment";

  const BytesView body = p->eth.payload;
  if (!within(p->llc, &LlcXidFrame::info, body) ||
      !within(p->eapol, &EapolFrame::body, body) ||
      !within(p->ipv4, &Ipv4Packet::payload, body) ||
      !within(p->ipv6, &Ipv6Packet::payload, body))
    return "network payload outside eth.payload";
  if (!decodes_as(p->arp, body, decode_arp)) return "arp differs";
  if (!decodes_as(p->llc, body, decode_llc)) return "llc differs";
  if (!decodes_as(p->eapol, body, decode_eapol)) return "eapol differs";
  if (!decodes_as(p->ipv4, body, decode_ipv4)) return "ipv4 differs";
  if (!decodes_as(p->ipv6, body, decode_ipv6)) return "ipv6 differs";

  BytesView segment;
  if (p->ipv4) segment = p->ipv4->payload;
  if (p->ipv6) segment = p->ipv6->payload;
  if (!within(p->udp, &UdpDatagram::payload, segment) ||
      !within(p->tcp, &TcpSegment::payload, segment) ||
      !within(p->icmp, &IcmpMessage::body, segment) ||
      !within(p->icmpv6, &Icmpv6Message::extra, segment))
    return "transport payload outside the IP payload";
  if (!decodes_as(p->udp, segment, decode_udp)) return "udp differs";
  if (!decodes_as(p->tcp, segment, decode_tcp)) return "tcp differs";
  if (!decodes_as(p->icmp, segment, decode_icmp)) return "icmp differs";
  if (!decodes_as(p->icmpv6, segment, decode_icmpv6)) return "icmpv6 differs";
  if (!decodes_as(p->igmp, segment, decode_igmp)) return "igmp differs";

  if (wire_proto(*p) != deepest_proto(*p))
    return "wire_proto disagrees with the present layers";

  const AppScope app(*p);
  if (!memo_agrees(*p, dns_of, decode_dns, encode_dns))
    return "dns_of disagrees with decode_dns";
  if (!memo_agrees(*p, ssdp_of, decode_ssdp, encode_ssdp))
    return "ssdp_of disagrees with decode_ssdp";
  if (!memo_agrees(*p, dhcp_of, decode_dhcp, encode_dhcp))
    return "dhcp_of disagrees with decode_dhcp";
  return nullptr;
}

int fuzz_frame(BytesView data) {
  if (data.size() > 65536) return 0;
  if (const char* violation = frame_contract_violation(data))
    fuzz_fail(kName, violation);
  return 0;
}

}  // namespace roomnet::fuzz
