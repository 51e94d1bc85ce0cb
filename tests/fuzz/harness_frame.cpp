// Differential fuzz of the zero-copy frame decode: on every input,
// decode_frame_view and the owning decode_frame must agree on accept/reject
// and, when they accept, field-for-field on every layer; and materialize/
// as_view must invert each other. These are exactly the contracts DESIGN.md
// §10 states and the capture hot path relies on.
#include <algorithm>

#include "harness.hpp"
#include "netcore/packet_view.hpp"

namespace roomnet::fuzz {

namespace {

constexpr char kName[] = "frame";

bool same_bytes(BytesView a, BytesView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}
bool same_bytes(const Bytes& a, BytesView b) {
  return same_bytes(BytesView(a), b);
}

bool same_mac(const MacAddress& a, const MacAddress& b) {
  return a.octets() == b.octets();
}
bool same_v6(const Ipv6Address& a, const Ipv6Address& b) {
  return a.bytes() == b.bytes();
}

void check_equivalent(const Packet& p, const PacketView& v) {
  ROOMNET_FUZZ_CHECK(same_mac(p.eth.dst, v.eth.dst), kName, "eth.dst");
  ROOMNET_FUZZ_CHECK(same_mac(p.eth.src, v.eth.src), kName, "eth.src");
  ROOMNET_FUZZ_CHECK(p.eth.ethertype == v.eth.ethertype, kName,
                     "eth.ethertype");
  ROOMNET_FUZZ_CHECK(same_bytes(p.eth.payload, v.eth.payload), kName,
                     "eth.payload");

  ROOMNET_FUZZ_CHECK(p.arp.has_value() == v.arp.has_value(), kName,
                     "arp presence");
  if (p.arp) {
    ROOMNET_FUZZ_CHECK(p.arp->op == v.arp->op &&
                           same_mac(p.arp->sender_mac, v.arp->sender_mac) &&
                           p.arp->sender_ip == v.arp->sender_ip &&
                           same_mac(p.arp->target_mac, v.arp->target_mac) &&
                           p.arp->target_ip == v.arp->target_ip,
                       kName, "arp fields");
  }

  ROOMNET_FUZZ_CHECK(p.llc.has_value() == v.llc.has_value(), kName,
                     "llc presence");
  if (p.llc) {
    ROOMNET_FUZZ_CHECK(p.llc->dsap == v.llc->dsap &&
                           p.llc->ssap == v.llc->ssap &&
                           p.llc->is_xid == v.llc->is_xid &&
                           same_bytes(p.llc->info, v.llc->info),
                       kName, "llc fields");
  }

  ROOMNET_FUZZ_CHECK(p.eapol.has_value() == v.eapol.has_value(), kName,
                     "eapol presence");
  if (p.eapol) {
    ROOMNET_FUZZ_CHECK(p.eapol->version == v.eapol->version &&
                           p.eapol->type == v.eapol->type &&
                           same_bytes(p.eapol->body, v.eapol->body),
                       kName, "eapol fields");
  }

  ROOMNET_FUZZ_CHECK(p.ipv4.has_value() == v.ipv4.has_value(), kName,
                     "ipv4 presence");
  if (p.ipv4) {
    ROOMNET_FUZZ_CHECK(p.ipv4->src == v.ipv4->src &&
                           p.ipv4->dst == v.ipv4->dst &&
                           p.ipv4->protocol == v.ipv4->protocol &&
                           p.ipv4->ttl == v.ipv4->ttl &&
                           p.ipv4->identification == v.ipv4->identification &&
                           same_bytes(p.ipv4->payload, v.ipv4->payload),
                       kName, "ipv4 fields");
  }

  ROOMNET_FUZZ_CHECK(p.ipv6.has_value() == v.ipv6.has_value(), kName,
                     "ipv6 presence");
  if (p.ipv6) {
    ROOMNET_FUZZ_CHECK(same_v6(p.ipv6->src, v.ipv6->src) &&
                           same_v6(p.ipv6->dst, v.ipv6->dst) &&
                           p.ipv6->next_header == v.ipv6->next_header &&
                           p.ipv6->hop_limit == v.ipv6->hop_limit &&
                           same_bytes(p.ipv6->payload, v.ipv6->payload),
                       kName, "ipv6 fields");
  }

  ROOMNET_FUZZ_CHECK(p.udp.has_value() == v.udp.has_value(), kName,
                     "udp presence");
  if (p.udp) {
    ROOMNET_FUZZ_CHECK(p.udp->src_port == v.udp->src_port &&
                           p.udp->dst_port == v.udp->dst_port &&
                           same_bytes(p.udp->payload, v.udp->payload),
                       kName, "udp fields");
  }

  ROOMNET_FUZZ_CHECK(p.tcp.has_value() == v.tcp.has_value(), kName,
                     "tcp presence");
  if (p.tcp) {
    ROOMNET_FUZZ_CHECK(
        p.tcp->src_port == v.tcp->src_port &&
            p.tcp->dst_port == v.tcp->dst_port && p.tcp->seq == v.tcp->seq &&
            p.tcp->ack == v.tcp->ack &&
            p.tcp->flags.to_byte() == v.tcp->flags.to_byte() &&
            p.tcp->window == v.tcp->window &&
            same_bytes(p.tcp->payload, v.tcp->payload),
        kName, "tcp fields");
  }

  ROOMNET_FUZZ_CHECK(p.icmp.has_value() == v.icmp.has_value(), kName,
                     "icmp presence");
  if (p.icmp) {
    ROOMNET_FUZZ_CHECK(p.icmp->type == v.icmp->type &&
                           p.icmp->code == v.icmp->code &&
                           same_bytes(p.icmp->body, v.icmp->body),
                       kName, "icmp fields");
  }

  ROOMNET_FUZZ_CHECK(p.icmpv6.has_value() == v.icmpv6.has_value(), kName,
                     "icmpv6 presence");
  if (p.icmpv6) {
    ROOMNET_FUZZ_CHECK(
        p.icmpv6->type == v.icmpv6->type && p.icmpv6->code == v.icmpv6->code &&
            p.icmpv6->target.has_value() == v.icmpv6->target.has_value() &&
            (!p.icmpv6->target || same_v6(*p.icmpv6->target, *v.icmpv6->target)) &&
            p.icmpv6->link_layer_option.has_value() ==
                v.icmpv6->link_layer_option.has_value() &&
            (!p.icmpv6->link_layer_option ||
             same_mac(*p.icmpv6->link_layer_option,
                      *v.icmpv6->link_layer_option)) &&
            same_bytes(p.icmpv6->extra, v.icmpv6->extra),
        kName, "icmpv6 fields");
  }

  ROOMNET_FUZZ_CHECK(p.igmp.has_value() == v.igmp.has_value(), kName,
                     "igmp presence");
  if (p.igmp) {
    ROOMNET_FUZZ_CHECK(p.igmp->type == v.igmp->type &&
                           p.igmp->group == v.igmp->group,
                       kName, "igmp fields");
  }

  // Derived accessors must agree too (they gate the classifiers).
  ROOMNET_FUZZ_CHECK(p.has_ip() == v.has_ip(), kName, "has_ip");
  ROOMNET_FUZZ_CHECK(p.has_transport() == v.has_transport(), kName,
                     "has_transport");
  ROOMNET_FUZZ_CHECK(same_bytes(p.app_payload(), v.app_payload()), kName,
                     "app_payload");
  ROOMNET_FUZZ_CHECK(wire_proto(p) == wire_proto(v), kName, "wire_proto");
}

}  // namespace

int fuzz_frame(BytesView data) {
  if (data.size() > 65536) return 0;

  const auto view = decode_frame_view(data);
  const auto owned = decode_frame(data);
  ROOMNET_FUZZ_CHECK(view.has_value() == owned.has_value(), kName,
                     "view/owning accept disagreement");
  if (!view) return 0;

  check_equivalent(*owned, *view);

  // materialize ∘ as_view must be the identity on decoded packets.
  const Packet rematerialized = materialize(as_view(*owned));
  check_equivalent(rematerialized, *view);
  return 0;
}

}  // namespace roomnet::fuzz
