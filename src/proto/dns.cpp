#include "proto/dns.hpp"

#include <algorithm>
#include <array>
#include <map>

#include "telemetry/metrics.hpp"

namespace roomnet {

std::string DnsName::to_string() const {
  std::string out;
  for (const auto& l : labels) {
    if (!out.empty()) out += '.';
    out += l;
  }
  return out;
}

DnsName DnsName::from_string(std::string_view dotted) {
  DnsName name;
  while (!dotted.empty()) {
    const auto dot = dotted.find('.');
    if (dot == std::string_view::npos) {
      name.labels.emplace_back(dotted);
      break;
    }
    name.labels.emplace_back(dotted.substr(0, dot));
    dotted.remove_prefix(dot + 1);
  }
  return name;
}

namespace {

/// Writes a name with suffix compression: each full suffix already emitted is
/// reused via a compression pointer.
class NameEncoder {
 public:
  void write(ByteWriter& w, const DnsName& name) {
    for (std::size_t i = 0; i < name.labels.size(); ++i) {
      const std::string suffix = join_suffix(name, i);
      const auto it = offsets_.find(suffix);
      if (it != offsets_.end() && it->second < 0x3fff) {
        w.u16(static_cast<std::uint16_t>(0xc000 | it->second));
        return;
      }
      if (w.size() < 0x3fff) offsets_.emplace(suffix, w.size());
      const std::string& label = name.labels[i];
      w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(label.size(), 63)));
      w.str(std::string_view(label).substr(0, 63));
    }
    w.u8(0);
  }

 private:
  static std::string join_suffix(const DnsName& name, std::size_t from) {
    std::string s;
    for (std::size_t i = from; i < name.labels.size(); ++i) {
      s += name.labels[i];
      s += '\x1f';
    }
    return s;
  }
  std::map<std::string, std::size_t> offsets_;
};

/// The labels of one name as slices of the message they were read from.
struct NameSlices {
  static constexpr std::size_t kMaxLabels = 128;
  struct Label {
    const std::uint8_t* data;
    std::uint8_t size;
  };
  std::array<Label, kMaxLabels> labels;  // the first `count` are set
  std::size_t count = 0;
};

/// Walks a possibly-compressed name. `r` must be positioned at the name; on
/// return it is positioned after the name (after the first pointer if any).
/// Fails on a truncated name, a label over 63 bytes, more than 128 labels or
/// more than 32 pointer jumps.
bool walk_name(ByteReader& r, BytesView whole, NameSlices& out) {
  int jumps = 0;
  std::optional<std::size_t> resume;  // offset to restore after pointer jumps
  for (;;) {
    const auto len = r.u8();
    if (!len) return false;
    if ((*len & 0xc0) == 0xc0) {
      const auto lo = r.u8();
      if (!lo) return false;
      if (++jumps > 32) return false;  // pointer loop
      if (!resume) resume = r.offset();
      const std::size_t target =
          (static_cast<std::size_t>(*len & 0x3f) << 8) | *lo;
      if (target >= whole.size()) return false;
      if (!r.seek(target)) return false;
      continue;
    }
    if (*len == 0) break;
    if (*len > 63) return false;
    const auto label = r.view(*len);
    if (!label || out.count == NameSlices::kMaxLabels) return false;
    out.labels[out.count++] = {label->data(), *len};
  }
  return !resume || r.seek(*resume);
}

std::optional<DnsName> read_name(ByteReader& r, BytesView whole) {
  NameSlices slices;
  if (!walk_name(r, whole, slices)) return std::nullopt;
  DnsName name;
  name.labels.reserve(slices.count);
  for (std::size_t i = 0; i < slices.count; ++i) {
    const auto& label = slices.labels[i];
    name.labels.emplace_back(reinterpret_cast<const char*>(label.data),
                             label.size);
  }
  return name;
}

/// Appends the name in plain wire form: length-prefixed labels, a zero byte.
void append_plain(const NameSlices& name, Bytes& out) {
  for (std::size_t i = 0; i < name.count; ++i) {
    const auto& label = name.labels[i];
    out.push_back(label.size);
    out.insert(out.end(), label.data, label.data + label.size);
  }
  out.push_back(0);
}

Bytes encode_name_plain(const DnsName& name) {
  ByteWriter w;
  for (const auto& label : name.labels) {
    w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(label.size(), 63)));
    w.str(std::string_view(label).substr(0, 63));
  }
  w.u8(0);
  return w.take();
}

}  // namespace

std::optional<Ipv4Address> DnsRecord::a() const {
  if (type != DnsType::kA || rdata.size() != 4) return std::nullopt;
  ByteReader r{BytesView(rdata)};
  return Ipv4Address(r.u32().value_or(0));
}

std::optional<Ipv6Address> DnsRecord::aaaa() const {
  if (type != DnsType::kAaaa || rdata.size() != 16) return std::nullopt;
  std::array<std::uint8_t, 16> b{};
  std::copy(rdata.begin(), rdata.end(), b.begin());
  return Ipv6Address(b);
}

std::optional<DnsName> DnsRecord::ptr() const {
  if (type != DnsType::kPtr) return std::nullopt;
  ByteReader r{BytesView(rdata)};
  return read_name(r, BytesView(rdata));
}

std::optional<SrvData> DnsRecord::srv() const {
  if (type != DnsType::kSrv) return std::nullopt;
  ByteReader r{BytesView(rdata)};
  SrvData s;
  s.priority = r.u16().value_or(0);
  s.weight = r.u16().value_or(0);
  s.port = r.u16().value_or(0);
  auto target = read_name(r, BytesView(rdata));
  if (!r.ok() || !target) return std::nullopt;
  s.target = std::move(*target);
  return s;
}

std::vector<std::string> DnsRecord::txt() const {
  std::vector<std::string> out;
  if (type != DnsType::kTxt) return out;
  ByteReader r{BytesView(rdata)};
  while (r.remaining() > 0) {
    const auto len = r.u8();
    if (!len) break;
    auto s = r.str(*len);
    if (!s) break;
    out.push_back(std::move(*s));
  }
  return out;
}

DnsRecord DnsRecord::make_a(DnsName name, Ipv4Address ip, std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kA;
  rec.cache_flush = true;
  rec.ttl = ttl;
  ByteWriter w;
  w.u32(ip.value());
  rec.rdata = w.take();
  return rec;
}

DnsRecord DnsRecord::make_aaaa(DnsName name, const Ipv6Address& ip,
                               std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kAaaa;
  rec.cache_flush = true;
  rec.ttl = ttl;
  rec.rdata = Bytes(ip.bytes().begin(), ip.bytes().end());
  return rec;
}

DnsRecord DnsRecord::make_ptr(DnsName name, const DnsName& target,
                              std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kPtr;
  rec.ttl = ttl;
  rec.rdata = encode_name_plain(target);
  return rec;
}

DnsRecord DnsRecord::make_srv(DnsName name, const SrvData& srv,
                              std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kSrv;
  rec.cache_flush = true;
  rec.ttl = ttl;
  ByteWriter w;
  w.u16(srv.priority).u16(srv.weight).u16(srv.port);
  w.raw(encode_name_plain(srv.target));
  rec.rdata = w.take();
  return rec;
}

DnsRecord DnsRecord::make_txt(DnsName name, const std::vector<std::string>& kv,
                              std::uint32_t ttl) {
  DnsRecord rec;
  rec.name = std::move(name);
  rec.type = DnsType::kTxt;
  rec.cache_flush = true;
  rec.ttl = ttl;
  ByteWriter w;
  for (const auto& s : kv) {
    w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(s.size(), 255)));
    w.str(std::string_view(s).substr(0, 255));
  }
  rec.rdata = w.take();
  return rec;
}

Bytes encode_dns(const DnsMessage& msg) {
  ByteWriter w;
  NameEncoder names;
  w.u16(msg.id);
  std::uint16_t flags = 0;
  if (msg.is_response) flags |= 0x8000;
  if (msg.authoritative) flags |= 0x0400;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(msg.questions.size()));
  w.u16(static_cast<std::uint16_t>(msg.answers.size()));
  w.u16(static_cast<std::uint16_t>(msg.authority.size()));
  w.u16(static_cast<std::uint16_t>(msg.additional.size()));
  for (const auto& q : msg.questions) {
    names.write(w, q.name);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(1 | (q.unicast_response ? 0x8000 : 0)));
  }
  const auto write_record = [&](const DnsRecord& rec) {
    names.write(w, rec.name);
    w.u16(static_cast<std::uint16_t>(rec.type));
    w.u16(static_cast<std::uint16_t>(1 | (rec.cache_flush ? 0x8000 : 0)));
    w.u32(rec.ttl);
    w.u16(static_cast<std::uint16_t>(rec.rdata.size()));
    w.raw(rec.rdata);
  };
  for (const auto& r : msg.answers) write_record(r);
  for (const auto& r : msg.authority) write_record(r);
  for (const auto& r : msg.additional) write_record(r);
  return w.take();
}

std::optional<DnsMessage> decode_dns(BytesView raw) {
  static telemetry::Counter& decodes = telemetry::Registry::global().counter(
      "roomnet_proto_decodes_total", {{"proto", "dns"}});
  decodes.inc();
  ByteReader r(raw);
  DnsMessage m;
  m.id = r.u16().value_or(0);
  const auto flags = r.u16();
  const auto qd = r.u16();
  const auto an = r.u16();
  const auto ns = r.u16();
  const auto ar = r.u16();
  if (!r.ok()) return std::nullopt;
  m.is_response = (*flags & 0x8000) != 0;
  m.authoritative = (*flags & 0x0400) != 0;

  // Counts are untrusted: reserve no more entries than the remaining bytes
  // could hold (a question takes at least 5 bytes, a record at least 11).
  const auto reserve = [&](auto& v, std::size_t count, std::size_t min_size) {
    v.reserve(std::min(count, r.remaining() / min_size));
  };
  reserve(m.questions, *qd, 5);
  for (std::uint16_t i = 0; i < *qd; ++i) {
    auto name = read_name(r, raw);
    const auto type = r.u16();
    const auto klass = r.u16();
    if (!name || !r.ok()) return std::nullopt;
    DnsQuestion& q = m.questions.emplace_back();
    q.name = std::move(*name);
    q.type = static_cast<DnsType>(*type);
    q.unicast_response = (*klass & 0x8000) != 0;
  }
  const auto read_record = [&](std::vector<DnsRecord>& out) -> bool {
    auto name = read_name(r, raw);
    const auto type = r.u16();
    const auto klass = r.u16();
    const auto ttl = r.u32();
    const auto rdlen = r.u16();
    if (!name || !r.ok()) return false;
    const std::size_t rdata_start = r.offset();
    const auto rdata = r.view(*rdlen);
    if (!rdata) return false;
    DnsRecord& rec = out.emplace_back();
    rec.name = std::move(*name);
    rec.type = static_cast<DnsType>(*type);
    rec.cache_flush = (*klass & 0x8000) != 0;
    rec.ttl = *ttl;
    if (rec.type != DnsType::kPtr && rec.type != DnsType::kSrv) {
      rec.rdata.assign(rdata->begin(), rdata->end());
      return true;
    }
    // A compressed PTR/SRV target inside rdata must be resolved against the
    // whole message; it is decompressed straight into rdata so the typed
    // accessors work on the extracted rdata alone.
    ByteReader rr(raw);
    rr.seek(rdata_start);
    // SRV: priority, weight and port precede the target.
    const auto fixed = rr.view(rec.type == DnsType::kSrv ? 6 : 0);
    NameSlices target;
    if (!fixed || !walk_name(rr, raw, target)) return false;
    rec.rdata.assign(fixed->begin(), fixed->end());
    append_plain(target, rec.rdata);
    return true;
  };
  reserve(m.answers, *an, 11);
  for (std::uint16_t i = 0; i < *an; ++i)
    if (!read_record(m.answers)) return std::nullopt;
  reserve(m.authority, *ns, 11);
  for (std::uint16_t i = 0; i < *ns; ++i)
    if (!read_record(m.authority)) return std::nullopt;
  reserve(m.additional, *ar, 11);
  for (std::uint16_t i = 0; i < *ar; ++i)
    if (!read_record(m.additional)) return std::nullopt;
  return m;
}

}  // namespace roomnet
