#include "proto/dhcp.hpp"

#include "telemetry/metrics.hpp"

namespace roomnet {

namespace {
constexpr std::uint32_t kMagicCookie = 0x63825363;
}

const DhcpOptionField* DhcpMessage::find_option(DhcpOption code) const {
  for (const auto& o : options)
    if (o.code == static_cast<std::uint8_t>(code)) return &o;
  return nullptr;
}

std::optional<DhcpMessageType> DhcpMessage::message_type() const {
  const auto* o = find_option(DhcpOption::kMessageType);
  if (o == nullptr || o->value.size() != 1) return std::nullopt;
  const std::uint8_t t = o->value[0];
  if (t < 1 || t > 8) return std::nullopt;
  return static_cast<DhcpMessageType>(t);
}

std::optional<std::string> DhcpMessage::hostname() const {
  const auto* o = find_option(DhcpOption::kHostName);
  if (o == nullptr) return std::nullopt;
  return string_of(BytesView(o->value));
}

std::optional<std::string> DhcpMessage::vendor_class() const {
  const auto* o = find_option(DhcpOption::kVendorClassId);
  if (o == nullptr) return std::nullopt;
  return string_of(BytesView(o->value));
}

std::vector<std::uint8_t> DhcpMessage::parameter_request_list() const {
  const auto* o = find_option(DhcpOption::kParameterRequestList);
  if (o == nullptr) return {};
  return o->value;
}

void DhcpMessage::set_message_type(DhcpMessageType type) {
  add_option(DhcpOption::kMessageType, Bytes{static_cast<std::uint8_t>(type)});
}

void DhcpMessage::set_hostname(std::string_view name) {
  add_option(DhcpOption::kHostName, bytes_of(name));
}

void DhcpMessage::set_vendor_class(std::string_view vc) {
  add_option(DhcpOption::kVendorClassId, bytes_of(vc));
}

void DhcpMessage::set_parameter_request_list(
    const std::vector<std::uint8_t>& codes) {
  add_option(DhcpOption::kParameterRequestList, Bytes(codes.begin(), codes.end()));
}

void DhcpMessage::add_option(DhcpOption code, Bytes value) {
  options.push_back({static_cast<std::uint8_t>(code), std::move(value)});
}

void DhcpMessage::add_ip_option(DhcpOption code, Ipv4Address ip) {
  ByteWriter w;
  w.u32(ip.value());
  add_option(code, w.take());
}

Bytes encode_dhcp(const DhcpMessage& msg) {
  ByteWriter w;
  w.u8(msg.is_request ? 1 : 2);  // op
  w.u8(1);                       // htype: Ethernet
  w.u8(6);                       // hlen
  w.u8(0);                       // hops
  w.u32(msg.xid);
  w.u16(0);       // secs
  w.u16(0x8000);  // flags: broadcast
  w.u32(msg.ciaddr.value());
  w.u32(msg.yiaddr.value());
  w.u32(msg.siaddr.value());
  w.u32(msg.giaddr.value());
  w.raw(BytesView(msg.client_mac.octets()));
  w.fill(0, 10);   // chaddr padding
  w.fill(0, 64);   // sname
  w.fill(0, 128);  // file
  w.u32(kMagicCookie);
  for (const auto& o : msg.options) {
    w.u8(o.code);
    w.u8(static_cast<std::uint8_t>(o.value.size()));
    w.raw(o.value);
  }
  w.u8(static_cast<std::uint8_t>(DhcpOption::kEnd));
  return w.take();
}

std::optional<DhcpMessage> decode_dhcp(BytesView raw) {
  static telemetry::Counter& decodes = telemetry::Registry::global().counter(
      "roomnet_proto_decodes_total", {{"proto", "dhcp"}});
  decodes.inc();
  ByteReader r(raw);
  DhcpMessage m;
  const auto op = r.u8();
  const auto htype = r.u8();
  const auto hlen = r.u8();
  r.skip(1);  // hops
  if (!r.ok() || (*op != 1 && *op != 2) || *htype != 1 || *hlen != 6)
    return std::nullopt;
  m.is_request = *op == 1;
  m.xid = r.u32().value_or(0);
  r.skip(4);  // secs + flags
  m.ciaddr = Ipv4Address(r.u32().value_or(0));
  m.yiaddr = Ipv4Address(r.u32().value_or(0));
  m.siaddr = Ipv4Address(r.u32().value_or(0));
  m.giaddr = Ipv4Address(r.u32().value_or(0));
  auto mac_bytes = r.view(6);
  if (!mac_bytes) return std::nullopt;
  std::array<std::uint8_t, 6> mo{};
  std::copy(mac_bytes->begin(), mac_bytes->end(), mo.begin());
  m.client_mac = MacAddress(mo);
  if (!r.skip(10 + 64 + 128)) return std::nullopt;
  const auto cookie = r.u32();
  if (!cookie || *cookie != kMagicCookie) return std::nullopt;

  while (r.remaining() > 0) {
    const auto code = r.u8();
    if (!code) return std::nullopt;
    if (*code == static_cast<std::uint8_t>(DhcpOption::kEnd)) break;
    if (*code == 0) continue;  // pad
    const auto len = r.u8();
    if (!len) return std::nullopt;
    auto value = r.bytes(*len);
    if (!value) return std::nullopt;
    m.options.push_back({*code, std::move(*value)});
  }
  return m;
}

}  // namespace roomnet
