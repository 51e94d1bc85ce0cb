// Structure-aware DNS/mDNS fuzz. Phase A treats the input as a raw message:
// decode must be total, and a successful decode must re-encode to a
// fixpoint. Phase B rebuilds a well-formed mDNS service advertisement and
// mutates it at field granularity — section counts, label length bytes,
// compression pointers (including self-referential and forward loops),
// rdlength, truncation — the exact adversarial classes the decoder's
// pointer-loop and label caps exist for. Both phases also decode with the
// reference copy of the old decoder (reference_decoders.hpp) and require
// the same fields, label strings and rdata bytes, from view_dns as from
// decode_dns, and re-encode with the reference copy of the old encoder
// (reference_encoders.hpp), requiring the same bytes.
#include "fuzz_input.hpp"
#include "fuzz_mutate.hpp"
#include "harness.hpp"
#include "proto/dns.hpp"
#include "reference_decoders.hpp"
#include "reference_encoders.hpp"

namespace roomnet::fuzz {

namespace {

constexpr char kName[] = "dns";
constexpr std::string_view kLabelChars =
    "abcdefghijklmnopqrstuvwxyz0123456789-_ ";

void check_reference(BytesView data) {
  ROOMNET_FUZZ_CHECK(reference::dns_differs(data) == nullptr, kName,
                     "decode_dns differs from the reference decoder");
}

/// True when a label holds the byte the reference encoder joins suffixes
/// with: its map keys collide there, and it compresses against the wrong
/// name.
bool has_reference_separator(const DnsMessage& m) {
  const auto in = [](const DnsName& name) {
    for (const auto& label : name.labels)
      if (label.find('\x1f') != std::string::npos) return true;
    return false;
  };
  for (const auto& q : m.questions)
    if (in(q.name)) return true;
  for (const auto* section : {&m.answers, &m.authority, &m.additional})
    for (const auto& rec : *section)
      if (in(rec.name)) return true;
  return false;
}

void check_idempotent(const DnsMessage& decoded) {
  const Bytes e2 = encode_dns(decoded);
  ROOMNET_FUZZ_CHECK(has_reference_separator(decoded) ||
                         e2 == reference::encode_dns(decoded),
                     kName, "encode_dns differs from the reference encoder");
  const auto d2 = decode_dns(BytesView(e2));
  ROOMNET_FUZZ_CHECK(d2.has_value(), kName,
                     "re-encoded message no longer decodes");
  const Bytes e3 = encode_dns(*d2);
  ROOMNET_FUZZ_CHECK(e2 == e3, kName, "decode-encode cycle is not a fixpoint");
}

DnsName advertisement_name(FuzzInput& in) {
  DnsName name;
  name.labels.push_back(in.str(in.range(1, 16), kLabelChars));
  name.labels.push_back("_" + in.str(in.range(1, 8), kLabelChars));
  name.labels.push_back(in.boolean() ? "_tcp" : "_udp");
  name.labels.push_back("local");
  return name;
}

/// A realistic mDNS advertisement: PTR + SRV + TXT + A, the shape every
/// device in the paper's testbed broadcasts.
Bytes template_advertisement(FuzzInput& in) {
  DnsMessage msg;
  msg.is_response = true;
  msg.authoritative = true;
  const DnsName service = advertisement_name(in);
  DnsName instance = service;
  instance.labels.insert(instance.labels.begin(),
                         in.str(in.range(1, 20), kLabelChars));
  msg.answers.push_back(DnsRecord::make_ptr(service, instance));
  SrvData srv;
  srv.port = in.u16();
  srv.target = DnsName::from_string(in.str(in.range(1, 12), kLabelChars) +
                                    ".local");
  msg.answers.push_back(DnsRecord::make_srv(instance, srv));
  msg.answers.push_back(DnsRecord::make_txt(
      instance, {"id=" + in.str(in.range(1, 12), kLabelChars),
                 "md=" + in.str(in.range(1, 12), kLabelChars)}));
  msg.additional.push_back(DnsRecord::make_a(srv.target, in.ipv4()));
  return encode_dns(msg);
}

}  // namespace

int fuzz_dns(BytesView data) {
  if (data.size() > 65536) return 0;

  // Phase A: the input is the wire message.
  check_reference(data);
  if (const auto decoded = decode_dns(data)) check_idempotent(*decoded);

  // Phase B: field-granularity mutations of a well-formed advertisement.
  FuzzInput in(data);
  Bytes wire = template_advertisement(in);
  const std::size_t mutations = in.range(1, 8);
  for (std::size_t i = 0; i < mutations && !wire.empty(); ++i) {
    switch (in.u8() % 6) {
      case 0:  // section counts (qd/an/ns/ar at offsets 4/6/8/10)
        put_u16(wire, 4 + 2 * (in.u8() % 4), interesting_u16(in));
        break;
      case 1: {  // compression pointer, possibly self/backward/forward loop
        if (wire.size() <= 12) break;  // a truncation may have eaten the body
        const std::size_t at = 12 + in.below(wire.size() - 12);
        wire[at] = static_cast<std::uint8_t>(0xc0 | (in.u8() & 0x3f));
        if (at + 1 < wire.size()) wire[at + 1] = in.u8();
        break;
      }
      case 2:  // label length byte: over-long (>63) or huge
        wire[in.below(wire.size())] = in.boolean() ? 0xff : (in.u8() | 0x40);
        break;
      case 3:  // rdlength-ish u16 anywhere in the record area
        put_u16(wire, 12 + in.below(wire.size()), interesting_u16(in));
        break;
      case 4:
        truncate(wire, in);
        break;
      default:  // plain byte rewrite
        wire[in.below(wire.size())] = in.u8();
        break;
    }
  }
  // The mutated message must decode totally (accept or cleanly reject —
  // never crash, hang, or over-read), and an accept must still round-trip.
  check_reference(BytesView(wire));
  if (const auto decoded = decode_dns(wire)) check_idempotent(*decoded);
  return 0;
}

}  // namespace roomnet::fuzz
