// Round-trip fuzz of every encoder: the input drives construction of one
// message (layer or payload protocol), which must encode, decode back with
// the decoder production runs, and re-encode to a byte-for-byte fixpoint.
// Protocols whose decode normalizes the wire form (DNS name compression,
// SSDP/HTTP header layout, NetBIOS name padding) are held to idempotence —
// encode∘decode applied twice must agree with itself — while everything
// else is held to strict equality of the first and second encode. Every
// link/network/transport encoder must also write the same bytes as its
// reference copy (reference_frame_codecs.hpp), and every layer decoder must
// make of the raw input what its reference copy makes of it.
#include <string>

#include "harness.hpp"
#include "fuzz_input.hpp"
#include "netcore/packet.hpp"
#include "proto/coap.hpp"
#include "proto/dhcp.hpp"
#include "proto/dhcpv6.hpp"
#include "proto/dns.hpp"
#include "proto/http.hpp"
#include "proto/matter.hpp"
#include "proto/media.hpp"
#include "proto/netbios.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"
#include "reference_frame_codecs.hpp"

namespace roomnet::fuzz {

namespace {

constexpr char kName[] = "roundtrip";
constexpr std::string_view kToken =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
constexpr std::string_view kUpper = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";

/// encode → decode → re-encode. `strict`: e2 must equal e1; always: the
/// decode must succeed and a second cycle must be a fixpoint (e2 == e3).
/// Layer decodes borrow their input, so d1 aliases e1 and d2 aliases e2;
/// both buffers live for the whole cycle.
template <typename Msg, typename Enc, typename Dec>
void roundtrip(const char* what, const Msg& m, Enc&& enc, Dec&& dec,
               bool strict) {
  const Bytes e1 = enc(m);
  const auto d1 = dec(BytesView(e1));
  if (!d1.has_value()) fuzz_fail(kName, what);  // encode output must decode
  const Bytes e2 = enc(*d1);
  if (strict && e1 != e2) fuzz_fail(kName, what);
  const auto d2 = dec(BytesView(e2));
  if (!d2.has_value()) fuzz_fail(kName, what);
  const Bytes e3 = enc(*d2);
  if (e2 != e3) fuzz_fail(kName, what);
}

/// The encoder writes the same bytes as its reference copy.
template <typename Msg, typename Enc, typename RefEnc>
void matches_reference(const char* what, const Msg& m, Enc&& enc,
                       RefEnc&& ref_enc) {
  if (enc(m) != ref_enc(m)) fuzz_fail(kName, what);
}

/// Each layer decoder accepts and rejects `raw` as its reference copy does,
/// with the same fields and slices.
template <typename Dec, typename RefDec>
void decodes_as_reference(const char* what, BytesView raw, Dec&& dec,
                          RefDec&& ref_dec) {
  if (!reference::same(dec(raw), ref_dec(raw))) fuzz_fail(kName, what);
}

void layer_decoders_match_reference(BytesView raw) {
  decodes_as_reference("ethernet decode", raw, decode_ethernet,
                       reference::decode_ethernet);
  decodes_as_reference("arp decode", raw, decode_arp, reference::decode_arp);
  decodes_as_reference("llc decode", raw, decode_llc, reference::decode_llc);
  decodes_as_reference("eapol decode", raw, decode_eapol,
                       reference::decode_eapol);
  decodes_as_reference("ipv4 decode", raw, decode_ipv4, reference::decode_ipv4);
  decodes_as_reference("ipv6 decode", raw, decode_ipv6, reference::decode_ipv6);
  decodes_as_reference("udp decode", raw, decode_udp, reference::decode_udp);
  decodes_as_reference("tcp decode", raw, decode_tcp, reference::decode_tcp);
  decodes_as_reference("icmp decode", raw, decode_icmp, reference::decode_icmp);
  decodes_as_reference("icmpv6 decode", raw, decode_icmpv6,
                       reference::decode_icmpv6);
  decodes_as_reference("igmp decode", raw, decode_igmp, reference::decode_igmp);
}

DnsName fuzz_dns_name(FuzzInput& in) {
  DnsName name;
  const std::size_t labels = in.range(1, 3);
  for (std::size_t i = 0; i < labels; ++i)
    name.labels.push_back(in.str(in.range(1, 12), kToken));
  return name;
}

json::Value fuzz_json(FuzzInput& in) {
  json::Object root;
  const std::size_t members = in.range(1, 3);
  for (std::size_t i = 0; i < members; ++i) {
    const std::string key = in.str(in.range(1, 8), kToken);
    switch (in.u8() % 4) {
      case 0: root.emplace(key, json::Value(static_cast<int>(in.u16()))); break;
      case 1: root.emplace(key, json::Value(in.boolean())); break;
      case 2: root.emplace(key, json::Value(in.str(in.range(0, 12), kToken))); break;
      default: {
        json::Object inner;
        inner.emplace(in.str(in.range(1, 6), kToken),
                      json::Value(static_cast<int>(in.u8())));
        root.emplace(key, json::Value(std::move(inner)));
      }
    }
  }
  return json::Value(std::move(root));
}

}  // namespace

int fuzz_roundtrip(BytesView data) {
  layer_decoders_match_reference(data);
  FuzzInput in(data);
  const Ipv4Address src4(192, 168, 10, static_cast<std::uint8_t>(in.u8() | 1));
  const Ipv4Address dst4(192, 168, 10, static_cast<std::uint8_t>(in.u8() | 2));
  Ipv6Address src6, dst6;
  {
    std::array<std::uint8_t, 16> b{};
    b[0] = 0xfe;
    b[1] = 0x80;
    b[15] = in.u8();
    src6 = Ipv6Address(b);
    b[15] = static_cast<std::uint8_t>(b[15] + 1);
    dst6 = Ipv6Address(b);
  }

  switch (in.u8() % 21) {
    case 0: {
      EthernetFrame f;
      f.dst = in.mac();
      f.src = in.mac();
      f.ethertype = in.u16();
      const Bytes payload = in.bytes(in.range(0, 64));
      f.payload = payload;
      roundtrip("ethernet", f, encode_ethernet, decode_ethernet, true);
      matches_reference("ethernet encode", f, encode_ethernet,
                        reference::encode_ethernet);
      break;
    }
    case 1: {
      ArpPacket a;
      a.op = in.boolean() ? ArpOp::kRequest : ArpOp::kReply;
      a.sender_mac = in.mac();
      a.sender_ip = in.ipv4();
      a.target_mac = in.mac();
      a.target_ip = in.ipv4();
      roundtrip("arp", a, encode_arp, decode_arp, true);
      matches_reference("arp encode", a, encode_arp, reference::encode_arp);
      break;
    }
    case 2: {
      LlcXidFrame f;
      f.dsap = in.u8();
      f.ssap = in.u8();
      f.is_xid = in.boolean();
      const Bytes info = in.bytes(in.range(0, 48));
      f.info = info;
      roundtrip("llc", f, encode_llc_xid, decode_llc, true);
      matches_reference("llc encode", f, encode_llc_xid,
                        reference::encode_llc_xid);
      break;
    }
    case 3: {
      EapolFrame f;
      f.version = in.u8();
      f.type = static_cast<EapolType>(in.u8() % 4);
      const Bytes body = in.bytes(in.range(0, 48));
      f.body = body;
      roundtrip("eapol", f, encode_eapol, decode_eapol, true);
      matches_reference("eapol encode", f, encode_eapol,
                        reference::encode_eapol);
      break;
    }
    case 4: {
      Ipv4Packet p;
      p.src = in.ipv4();
      p.dst = in.ipv4();
      p.protocol = in.u8();
      p.ttl = in.u8();
      p.identification = in.u16();
      const Bytes payload = in.bytes(in.range(0, 96));
      p.payload = payload;
      roundtrip("ipv4", p, encode_ipv4, decode_ipv4, true);
      matches_reference("ipv4 encode", p, encode_ipv4, reference::encode_ipv4);
      break;
    }
    case 5: {
      Ipv6Packet p;
      p.src = in.ipv6();
      p.dst = in.ipv6();
      p.next_header = in.u8();
      p.hop_limit = in.u8();
      const Bytes payload = in.bytes(in.range(0, 96));
      p.payload = payload;
      roundtrip("ipv6", p, encode_ipv6, decode_ipv6, true);
      matches_reference("ipv6 encode", p, encode_ipv6, reference::encode_ipv6);
      break;
    }
    case 6: {
      UdpDatagram u;
      u.src_port = port(in.u16());
      u.dst_port = port(in.u16());
      const Bytes payload = in.bytes(in.range(0, 96));
      u.payload = payload;
      roundtrip(
          "udp", u,
          [&](const UdpDatagram& m) { return encode_udp_v4(m, src4, dst4); },
          decode_udp, true);
      if (encode_udp_v4(u, src4, dst4) !=
              reference::encode_udp_v4(u, src4, dst4) ||
          encode_udp_v6(u, src6, dst6) !=
              reference::encode_udp_v6(u, src6, dst6))
        fuzz_fail(kName, "udp encode");
      break;
    }
    case 7: {
      TcpSegment t;
      t.src_port = port(in.u16());
      t.dst_port = port(in.u16());
      t.seq = in.u32();
      t.ack = in.u32();
      t.flags = TcpFlags::from_byte(in.u8() & 0x1f);
      t.window = in.u16();
      const Bytes payload = in.bytes(in.range(0, 96));
      t.payload = payload;
      roundtrip(
          "tcp", t,
          [&](const TcpSegment& m) { return encode_tcp_v4(m, src4, dst4); },
          decode_tcp, true);
      if (encode_tcp_v4(t, src4, dst4) != reference::encode_tcp_v4(t, src4, dst4))
        fuzz_fail(kName, "tcp encode");
      break;
    }
    case 8: {
      IcmpMessage m;
      m.type = in.u8();
      m.code = in.u8();
      const Bytes body = in.bytes(in.range(0, 48));
      m.body = body;
      roundtrip("icmp", m, encode_icmp, decode_icmp, true);
      matches_reference("icmp encode", m, encode_icmp, reference::encode_icmp);
      break;
    }
    case 9: {
      static constexpr Icmpv6Type kTypes[] = {
          Icmpv6Type::kEchoRequest,          Icmpv6Type::kEchoReply,
          Icmpv6Type::kRouterSolicitation,   Icmpv6Type::kRouterAdvertisement,
          Icmpv6Type::kNeighborSolicitation, Icmpv6Type::kNeighborAdvertisement,
      };
      Icmpv6Message m;
      m.type = kTypes[in.u8() % 6];
      m.code = in.u8();
      const bool ndp = m.type == Icmpv6Type::kNeighborSolicitation ||
                       m.type == Icmpv6Type::kNeighborAdvertisement;
      Bytes extra;
      if (ndp) {
        m.target = in.ipv6();
        if (in.boolean()) m.link_layer_option = in.mac();
      } else {
        extra = in.bytes(in.range(0, 48));
        m.extra = extra;
      }
      roundtrip(
          "icmpv6", m,
          [&](const Icmpv6Message& x) { return encode_icmpv6(x, src6, dst6); },
          decode_icmpv6, true);
      if (encode_icmpv6(m, src6, dst6) != reference::encode_icmpv6(m, src6, dst6))
        fuzz_fail(kName, "icmpv6 encode");
      break;
    }
    case 10: {
      IgmpMessage m;
      m.type = in.u8();
      m.group = in.ipv4();
      roundtrip("igmp", m, encode_igmp, decode_igmp, true);
      matches_reference("igmp encode", m, encode_igmp, reference::encode_igmp);
      break;
    }
    case 11: {
      DnsMessage m;
      m.id = in.u16();
      m.is_response = in.boolean();
      m.authoritative = in.boolean();
      const std::size_t questions = in.range(0, 2);
      for (std::size_t i = 0; i < questions; ++i) {
        DnsQuestion q;
        q.name = fuzz_dns_name(in);
        static constexpr DnsType kTypes[] = {DnsType::kA,   DnsType::kPtr,
                                             DnsType::kTxt, DnsType::kAaaa,
                                             DnsType::kSrv, DnsType::kAny};
        q.type = kTypes[in.u8() % 6];
        q.unicast_response = in.boolean();
        m.questions.push_back(std::move(q));
      }
      const std::size_t answers = in.range(0, 3);
      for (std::size_t i = 0; i < answers; ++i) {
        switch (in.u8() % 5) {
          case 0:
            m.answers.push_back(DnsRecord::make_a(fuzz_dns_name(in), in.ipv4()));
            break;
          case 1:
            m.answers.push_back(
                DnsRecord::make_aaaa(fuzz_dns_name(in), in.ipv6()));
            break;
          case 2:
            m.answers.push_back(
                DnsRecord::make_ptr(fuzz_dns_name(in), fuzz_dns_name(in)));
            break;
          case 3: {
            SrvData srv;
            srv.priority = in.u16();
            srv.weight = in.u16();
            srv.port = in.u16();
            srv.target = fuzz_dns_name(in);
            m.answers.push_back(DnsRecord::make_srv(fuzz_dns_name(in), srv));
            break;
          }
          default: {
            std::vector<std::string> txt;
            const std::size_t n = in.range(1, 3);
            for (std::size_t j = 0; j < n; ++j)
              txt.push_back(in.str(in.range(1, 16), kToken));
            m.answers.push_back(DnsRecord::make_txt(fuzz_dns_name(in), txt));
          }
        }
      }
      // decode re-encodes compressed PTR/SRV targets in plain form, so the
      // wire form normalizes after one cycle: idempotence, not strict.
      roundtrip("dns", m, encode_dns, decode_dns, false);
      break;
    }
    case 12: {
      DhcpMessage m;
      m.is_request = in.boolean();
      m.xid = in.u32();
      m.ciaddr = in.ipv4();
      m.yiaddr = in.ipv4();
      m.siaddr = in.ipv4();
      m.giaddr = in.ipv4();
      m.client_mac = in.mac();
      m.set_message_type(static_cast<DhcpMessageType>(in.range(1, 8)));
      const std::size_t options = in.range(0, 4);
      for (std::size_t i = 0; i < options; ++i) {
        // Codes 0 (pad) and 255 (end) are framing, not options.
        const auto code = static_cast<std::uint8_t>(in.range(1, 254));
        m.options.push_back({code, in.bytes(in.range(0, 48))});
      }
      roundtrip("dhcp", m, encode_dhcp, decode_dhcp, true);
      break;
    }
    case 13: {
      SsdpMessage m;
      static constexpr SsdpKind kKinds[] = {SsdpKind::kMSearch,
                                            SsdpKind::kNotify,
                                            SsdpKind::kResponse};
      m.kind = kKinds[in.u8() % 3];
      m.search_target = in.str(in.range(1, 24), kToken);
      m.usn = in.str(in.range(0, 24), kToken);
      m.server = in.str(in.range(0, 24), kToken);
      m.location = in.str(in.range(0, 24), kToken);
      m.nts = in.boolean() ? "ssdp:alive" : "ssdp:byebye";
      m.mx = static_cast<int>(in.range(1, 120));
      roundtrip("ssdp", m, encode_ssdp, decode_ssdp, false);
      break;
    }
    case 14: {
      if (in.boolean()) {
        HttpRequest req;
        static constexpr const char* kMethods[] = {"GET", "POST", "PUT",
                                                   "HEAD"};
        req.method = kMethods[in.u8() % 4];
        req.target = "/" + in.str(in.range(0, 16), kToken);
        const std::size_t headers = in.range(0, 3);
        for (std::size_t i = 0; i < headers; ++i)
          req.headers.add(in.str(in.range(1, 10), kToken),
                          in.str(in.range(1, 16), kToken));
        req.body = in.bytes(in.range(0, 48));
        roundtrip("http-request", req, encode_http_request,
                  decode_http_request, false);
      } else {
        HttpResponse res;
        res.status = static_cast<int>(in.range(100, 599));
        res.reason = in.str(in.range(1, 12), kToken);
        const std::size_t headers = in.range(0, 3);
        for (std::size_t i = 0; i < headers; ++i)
          res.headers.add(in.str(in.range(1, 10), kToken),
                          in.str(in.range(1, 16), kToken));
        res.body = in.bytes(in.range(0, 48));
        roundtrip("http-response", res, encode_http_response,
                  decode_http_response, false);
      }
      break;
    }
    case 15: {
      static constexpr TlsVersion kVersions[] = {
          TlsVersion::kTls10, TlsVersion::kTls11, TlsVersion::kTls12,
          TlsVersion::kTls13};
      switch (in.u8() % 3) {
        case 0: {
          TlsClientHello hello;
          hello.version = kVersions[in.u8() % 4];
          hello.random = in.bytes(32);
          hello.random.resize(32, 0);
          const std::size_t suites = in.range(1, 8);
          for (std::size_t i = 0; i < suites; ++i)
            hello.cipher_suites.push_back(in.u16());
          hello.sni = in.str(in.range(0, 16), kToken);
          roundtrip(
              "tls-client-hello", hello, encode_client_hello,
              [](BytesView raw) -> std::optional<TlsClientHello> {
                const auto record = decode_tls_record(raw);
                if (!record) return std::nullopt;
                return decode_client_hello(*record);
              },
              false);
          break;
        }
        case 1: {
          TlsServerHello hello;
          hello.version = kVersions[in.u8() % 4];
          hello.random = in.bytes(32);
          hello.random.resize(32, 0);
          hello.cipher_suite = in.u16();
          roundtrip(
              "tls-server-hello", hello, encode_server_hello,
              [](BytesView raw) -> std::optional<TlsServerHello> {
                const auto record = decode_tls_record(raw);
                if (!record) return std::nullopt;
                return decode_server_hello(*record);
              },
              false);
          break;
        }
        default: {
          CertificateInfo cert;
          cert.subject_cn = in.str(in.range(1, 24), kToken);
          cert.issuer_cn = in.str(in.range(1, 24), kToken);
          cert.validity_days = in.u16();
          cert.key_bits = in.u16();
          const TlsVersion version = kVersions[in.u8() % 4];
          roundtrip(
              "tls-certificate", cert,
              [&](const CertificateInfo& c) {
                return encode_certificate(c, version, /*encrypted=*/false);
              },
              [](BytesView raw) -> std::optional<CertificateInfo> {
                const auto record = decode_tls_record(raw);
                if (!record) return std::nullopt;
                return decode_certificate(*record);
              },
              false);
        }
      }
      break;
    }
    case 16: {
      CoapMessage m;
      m.type = static_cast<CoapType>(in.u8() % 4);
      m.code = in.u8();
      m.message_id = in.u16();
      m.token = in.bytes(in.range(0, 8));
      std::uint16_t number = 0;
      const std::size_t options = in.range(0, 4);
      for (std::size_t i = 0; i < options; ++i) {
        number = static_cast<std::uint16_t>(number + in.range(0, 40));
        m.options.push_back({number, in.bytes(in.range(0, 24))});
      }
      m.payload = in.bytes(in.range(0, 32));
      roundtrip("coap", m, encode_coap, decode_coap, false);
      break;
    }
    case 17: {
      Dhcpv6Message m;
      m.type = static_cast<Dhcpv6Type>(in.range(1, 36));
      m.transaction_id = in.u32() & 0xffffff;
      if (in.boolean()) m.set_client_duid_ll(in.mac());
      if (in.boolean()) m.set_fqdn(in.str(in.range(1, 24), kToken));
      const std::size_t options = in.range(0, 3);
      for (std::size_t i = 0; i < options; ++i)
        m.options.push_back({in.u16(), in.bytes(in.range(0, 32))});
      roundtrip("dhcpv6", m, encode_dhcpv6, decode_dhcpv6, true);
      break;
    }
    case 18: {
      if (in.boolean()) {
        TuyaFrame f;
        f.seq = in.u32();
        f.command = in.u32();
        f.payload = in.bytes(in.range(0, 48));
        roundtrip("tuya-frame", f, encode_tuya_frame, decode_tuya_frame, true);
      } else {
        const json::Value command = fuzz_json(in);
        if (in.boolean()) {
          roundtrip("tplink-udp", command, encode_tplink_udp,
                    decode_tplink_udp, true);
        } else {
          roundtrip("tplink-tcp", command, encode_tplink_tcp,
                    decode_tplink_tcp, true);
        }
      }
      break;
    }
    case 19: {
      switch (in.u8() % 3) {
        case 0: {
          MatterMessage m;
          m.session_id = in.u16();
          m.message_counter = in.u32();
          if (in.boolean()) m.source_node = in.u64();
          if (in.boolean()) m.destination_node = in.u64();
          m.payload = in.bytes(in.range(0, 48));
          roundtrip("matter", m, encode_matter, decode_matter, true);
          break;
        }
        case 1: {
          RtpPacket p;
          p.payload_type = in.u8() & 0x7f;
          p.sequence = in.u16();
          p.timestamp = in.u32();
          p.ssrc = in.u32();
          p.payload = in.bytes(in.range(0, 48));
          roundtrip("rtp", p, encode_rtp, decode_rtp, true);
          break;
        }
        default: {
          StunMessage m;
          m.type = in.u16() & 0x3fff;
          m.transaction_id = in.bytes(12);
          m.attributes = in.bytes(in.range(0, 48));
          roundtrip("stun", m, encode_stun, decode_stun, true);
        }
      }
      break;
    }
    default: {
      NetbiosPacket p;
      p.transaction_id = in.u16();
      static constexpr NetbiosOp kOps[] = {NetbiosOp::kNameQuery,
                                           NetbiosOp::kNodeStatusQuery,
                                           NetbiosOp::kNodeStatusResponse};
      p.op = kOps[in.u8() % 3];
      p.name = in.boolean() ? "*" : in.str(in.range(1, 8), kUpper);
      if (p.op == NetbiosOp::kNodeStatusResponse) {
        const std::size_t names = in.range(0, 3);
        for (std::size_t i = 0; i < names; ++i)
          p.owned_names.push_back(in.str(in.range(1, 8), kUpper));
      }
      roundtrip("netbios", p, encode_netbios, decode_netbios, false);
      break;
    }
  }
  return 0;
}

}  // namespace roomnet::fuzz
