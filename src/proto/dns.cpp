#include "proto/dns.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "proto/http.hpp"
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

/// Reads the entries of messages view_dns accepted. Nothing is checked
/// here: the walk that built the view already did.
struct DnsWire {
  static std::uint16_t u16(const std::uint8_t* p) {
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
  }
  static std::size_t skip_name(const std::uint8_t* base, std::size_t at) {
    for (;;) {
      const std::uint8_t len = base[at];
      if ((len & 0xc0) == 0xc0) return at + 2;
      if (len == 0) return at + 1;
      at += 1u + len;
    }
  }
  static DnsNameView name_at(const std::uint8_t* base, std::size_t at) {
    return {base, at};
  }
  /// The name at `p`, inside the message `within` was read from.
  static DnsNameView name_at(const DnsNameView& within, const std::uint8_t* p) {
    return {within.base_, static_cast<std::size_t>(p - within.base_)};
  }
  /// Reads the entry at `at` into `out`; returns the offset after it.
  static std::size_t read(const std::uint8_t* base, std::size_t at,
                          DnsQuestionView& out) {
    out.name = {base, at};
    const std::uint8_t* p = base + skip_name(base, at);
    out.type = static_cast<DnsType>(u16(p));
    out.unicast_response = (p[2] & 0x80) != 0;
    return static_cast<std::size_t>(p + 4 - base);
  }
  static std::size_t read(const std::uint8_t* base, std::size_t at,
                          DnsRecordView& out) {
    out.name = {base, at};
    const std::uint8_t* p = base + skip_name(base, at);
    out.type = static_cast<DnsType>(u16(p));
    out.cache_flush = (p[2] & 0x80) != 0;
    out.ttl = static_cast<std::uint32_t>(u16(p + 4)) << 16 | u16(p + 6);
    out.rdata = BytesView(p + 10, u16(p + 8));
    return static_cast<std::size_t>(p + 10 - base) + out.rdata.size();
  }
  template <class Entry>
  static DnsSection<Entry> section(BytesView raw, std::size_t offset,
                                   std::uint16_t count) {
    return {raw.data(), offset, count};
  }
};

template <class Entry>
typename DnsSection<Entry>::Iterator& DnsSection<Entry>::Iterator::operator++() {
  if (--left_ != 0) next_ = DnsWire::read(base_, next_, entry_);
  return *this;
}

template <class Entry>
typename DnsSection<Entry>::Iterator DnsSection<Entry>::begin() const {
  Iterator it;
  it.base_ = base_;
  it.left_ = count_;
  if (count_ != 0) it.next_ = DnsWire::read(base_, offset_, it.entry_);
  return it;
}

template class DnsSection<DnsQuestionView>;
template class DnsSection<DnsRecordView>;

namespace {

/// Checks the possibly-compressed name at r's position and leaves r after
/// it (after the first pointer if any). Fails on a truncated name, a label
/// over 63 bytes, more than 128 labels or more than 32 pointer jumps.
bool check_name(ByteReader& r, BytesView whole) {
  int jumps = 0;
  std::size_t labels = 0;
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
    if (!r.skip(*len) || labels++ == 128) return false;
  }
  return !resume || r.seek(*resume);
}

std::optional<DnsName> read_name(ByteReader& r, BytesView whole) {
  const std::size_t at = r.offset();
  if (!check_name(r, whole)) return std::nullopt;
  return DnsWire::name_at(whole.data(), at).to_name();
}

/// The bytes of a label on the wire: empty labels are not written, and a
/// label is cut to 63 bytes.
std::string_view wire_label(const std::string& label) {
  return std::string_view(label).substr(0, 63);
}

/// Offsets of the name suffixes written so far, in the order written.
class SuffixTable {
 public:
  /// Room for `labels` offsets: a message records at most one per label.
  explicit SuffixTable(std::size_t labels) { offsets_.reserve(labels); }
  /// The first recorded offset whose name equals labels [from, end) of
  /// `name`, comparing the bytes written in `out`.
  std::optional<std::size_t> find(const Bytes& out, const DnsName& name,
                                  std::size_t from) const {
    for (const std::uint16_t at : offsets_)
      if (matches(out, at, name, from)) return at;
    return std::nullopt;
  }
  void add(std::size_t at) { offsets_.push_back(static_cast<std::uint16_t>(at)); }

 private:
  static bool matches(const Bytes& out, std::size_t at, const DnsName& name,
                      std::size_t from) {
    const auto follow = [&] {
      while ((out[at] & 0xc0) == 0xc0)
        at = (static_cast<std::size_t>(out[at] & 0x3f) << 8) | out[at + 1];
    };
    for (std::size_t i = from; i < name.labels.size(); ++i) {
      const std::string_view label = wire_label(name.labels[i]);
      if (label.empty()) continue;
      follow();
      if (out[at] != label.size() ||
          std::memcmp(out.data() + at + 1, label.data(), label.size()) != 0)
        return false;
      at += 1 + label.size();
    }
    follow();
    return out[at] == 0;
  }

  std::vector<std::uint16_t> offsets_;
};

/// Writes `name`: length-prefixed labels and a zero byte. With a table, a
/// suffix already written becomes a compression pointer to it instead.
void write_name(ByteWriter& w, const DnsName& name, SuffixTable* table) {
  for (std::size_t i = 0; i < name.labels.size(); ++i) {
    const std::string_view label = wire_label(name.labels[i]);
    if (label.empty()) continue;
    if (table != nullptr) {
      if (const auto at = table->find(w.data(), name, i)) {
        w.u16(static_cast<std::uint16_t>(0xc000 | *at));
        return;
      }
      if (w.size() < 0x3fff) table->add(w.size());
    }
    w.u8(static_cast<std::uint8_t>(label.size()));
    w.str(label);
  }
  w.u8(0);
}

/// The most bytes write_name can take for `name`.
std::size_t max_name_size(const DnsName& name) {
  std::size_t n = 1;
  for (const auto& label : name.labels) n += 1 + wire_label(label).size();
  return n;
}

Bytes encode_name_plain(const DnsName& name) {
  ByteWriter w;
  w.reserve(max_name_size(name));
  write_name(w, name, nullptr);
  return w.take();
}

}  // namespace

// ------------------------------------------------------------------- views

std::string DnsNameView::to_string() const {
  std::string out;
  for_each_label([&](std::string_view label) {
    if (!out.empty()) out += '.';
    out += label;
  });
  return out;
}

DnsName DnsNameView::to_name() const {
  std::size_t count = 0;
  for_each_label([&](std::string_view) { ++count; });
  DnsName name;
  name.labels.reserve(count);
  for_each_label([&](std::string_view label) { name.labels.emplace_back(label); });
  return name;
}

bool DnsNameView::iequals(std::string_view dotted) const {
  std::size_t at = 0;  // where the next label starts in `dotted`
  bool first = true;
  bool same = true;
  for_each_label([&](std::string_view label) {
    if (!same) return;
    if (!std::exchange(first, false)) {
      same = at < dotted.size() && dotted[at] == '.';
      ++at;
    }
    same = same && at <= dotted.size() &&
           roomnet::iequals(label, dotted.substr(at, label.size()));
    at += label.size();
  });
  return same && at == dotted.size();
}

std::optional<Ipv4Address> DnsRecordView::a() const {
  if (type != DnsType::kA || rdata.size() != 4) return std::nullopt;
  return Ipv4Address(static_cast<std::uint32_t>(DnsWire::u16(rdata.data())) << 16 |
                     DnsWire::u16(rdata.data() + 2));
}

std::optional<Ipv6Address> DnsRecordView::aaaa() const {
  if (type != DnsType::kAaaa || rdata.size() != 16) return std::nullopt;
  std::array<std::uint8_t, 16> b{};
  std::copy(rdata.begin(), rdata.end(), b.begin());
  return Ipv6Address(b);
}

std::optional<DnsNameView> DnsRecordView::ptr() const {
  if (type != DnsType::kPtr) return std::nullopt;
  return DnsWire::name_at(name, rdata.data());
}

std::optional<SrvView> DnsRecordView::srv() const {
  if (type != DnsType::kSrv) return std::nullopt;
  // view_dns checked the 6 fixed bytes and the target, even past rdlength.
  const std::uint8_t* p = rdata.data();
  return SrvView{DnsWire::u16(p), DnsWire::u16(p + 2), DnsWire::u16(p + 4),
                 DnsWire::name_at(name, p + 6)};
}

DnsRecord DnsRecordView::to_record() const {
  DnsRecord rec;
  rec.name = name.to_name();
  rec.type = type;
  rec.cache_flush = cache_flush;
  rec.ttl = ttl;
  std::optional<DnsNameView> target = ptr();
  if (const auto s = srv()) {
    rec.rdata.assign(rdata.data(), rdata.data() + 6);
    target = s->target;
  }
  if (!target) {
    rec.rdata.assign(rdata.begin(), rdata.end());
    return rec;
  }
  // The target decompressed, so the owning accessors read rdata alone.
  target->for_each_label([&](std::string_view label) {
    rec.rdata.push_back(static_cast<std::uint8_t>(label.size()));
    rec.rdata.insert(rec.rdata.end(), label.begin(), label.end());
  });
  rec.rdata.push_back(0);
  return rec;
}

DnsMessage DnsView::to_message() const {
  DnsMessage m;
  m.id = id;
  m.is_response = is_response;
  m.authoritative = authoritative;
  m.questions.reserve(questions.size());
  for (const DnsQuestionView& q : questions)
    m.questions.push_back({q.name.to_name(), q.type, q.unicast_response});
  const auto copy = [](const DnsSection<DnsRecordView>& from,
                       std::vector<DnsRecord>& to) {
    to.reserve(from.size());
    for (const DnsRecordView& rec : from) to.push_back(rec.to_record());
  };
  copy(answers, m.answers);
  copy(authority, m.authority);
  copy(additional, m.additional);
  return m;
}

// ------------------------------------------------------------------ owning

namespace {
/// An owning record's type and rdata, for the view's a(), aaaa() and
/// for_each_txt (its name is empty, so not for ptr() or srv()).
DnsRecordView rdata_view(const DnsRecord& rec) {
  DnsRecordView view;
  view.type = rec.type;
  view.rdata = rec.rdata;
  return view;
}
}  // namespace

std::optional<Ipv4Address> DnsRecord::a() const { return rdata_view(*this).a(); }

std::optional<Ipv6Address> DnsRecord::aaaa() const {
  return rdata_view(*this).aaaa();
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
  rdata_view(*this).for_each_txt([&](std::string_view s) { out.emplace_back(s); });
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
  static telemetry::Counter& encodes = telemetry::Registry::global().counter(
      "roomnet_proto_encodes_total", {{"proto", "dns"}});
  encodes.inc();
  std::size_t size = 12;
  std::size_t labels = 0;
  const auto count = [&](const DnsName& name, std::size_t fixed) {
    size += max_name_size(name) + fixed;
    labels += name.labels.size();
  };
  for (const auto& q : msg.questions) count(q.name, 4);
  for (const auto* section : {&msg.answers, &msg.authority, &msg.additional})
    for (const auto& rec : *section) count(rec.name, 10 + rec.rdata.size());
  ByteWriter w;
  w.reserve(size);
  SuffixTable names(labels);
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
    write_name(w, q.name, &names);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(1 | (q.unicast_response ? 0x8000 : 0)));
  }
  const auto write_record = [&](const DnsRecord& rec) {
    write_name(w, rec.name, &names);
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

std::optional<DnsView> view_dns(BytesView raw) {
  static telemetry::Counter& decodes = telemetry::Registry::global().counter(
      "roomnet_proto_decodes_total", {{"proto", "dns"}});
  decodes.inc();
  ByteReader r(raw);
  DnsView m;
  m.id = r.u16().value_or(0);
  const auto flags = r.u16();
  const auto qd = r.u16();
  const auto an = r.u16();
  const auto ns = r.u16();
  const auto ar = r.u16();
  if (!r.ok()) return std::nullopt;
  m.is_response = (*flags & 0x8000) != 0;
  m.authoritative = (*flags & 0x0400) != 0;

  m.questions = DnsWire::section<DnsQuestionView>(raw, r.offset(), *qd);
  for (std::uint16_t i = 0; i < *qd; ++i)
    if (!check_name(r, raw) || !r.skip(4)) return std::nullopt;
  const auto check_records = [&](DnsSection<DnsRecordView>& section,
                                 std::uint16_t count) -> bool {
    section = DnsWire::section<DnsRecordView>(raw, r.offset(), count);
    for (std::uint16_t i = 0; i < count; ++i) {
      if (!check_name(r, raw)) return false;
      const auto type = r.u16();
      r.skip(6);  // class, TTL
      const auto rdlen = r.u16();
      if (!r.ok()) return false;
      const std::size_t rdata_start = r.offset();
      if (!r.skip(*rdlen)) return false;
      // A PTR/SRV target is read through the whole message: it may point
      // anywhere in it, and is not bounded by rdlength.
      const auto rtype = static_cast<DnsType>(*type);
      if (rtype != DnsType::kPtr && rtype != DnsType::kSrv) continue;
      ByteReader target(raw);
      target.seek(rdata_start);
      // SRV: priority, weight and port precede the target.
      if (!target.skip(rtype == DnsType::kSrv ? 6 : 0) ||
          !check_name(target, raw))
        return false;
    }
    return true;
  };
  if (!check_records(m.answers, *an) || !check_records(m.authority, *ns) ||
      !check_records(m.additional, *ar))
    return std::nullopt;
  return m;
}

std::optional<DnsMessage> decode_dns(BytesView raw) {
  const auto view = view_dns(raw);
  if (!view) return std::nullopt;
  return view->to_message();
}

}  // namespace roomnet
