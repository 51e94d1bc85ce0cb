// Reference copies of the SSDP and DNS decoders as they were before the
// one-pass rewrite: SSDP composed from full HTTP request/response decodes
// (every header copied, the head parsed again for a response), DNS decoding
// PTR/SRV targets into a DnsName and re-encoding it. The differential tests
// (proto_test) and the fuzz harnesses decode the same bytes with both and
// require equal results field for field, from the views (view_dns,
// view_ssdp) as well as from the owning decoders built on them. The
// reference decoders bump no decode counter.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <climits>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "proto/dns.hpp"
#include "proto/http.hpp"
#include "proto/ssdp.hpp"

namespace roomnet::reference {

// ------------------------------------------------------------------ HTTP

inline bool iequals(std::string_view a, std::string_view b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

struct Headers {
  std::vector<std::pair<std::string, std::string>> entries;
  [[nodiscard]] std::optional<std::string> get(std::string_view name) const {
    for (const auto& [n, v] : entries)
      if (iequals(n, name)) return v;
    return std::nullopt;
  }
};

struct HeadParse {
  std::string start_line;
  Headers headers;
  std::size_t body_offset = 0;
};

inline std::optional<HeadParse> parse_head(std::string_view text) {
  HeadParse out;
  const auto line_end = text.find("\r\n");
  if (line_end == std::string_view::npos) return std::nullopt;
  out.start_line = std::string(text.substr(0, line_end));
  std::size_t pos = line_end + 2;
  for (;;) {
    const auto eol = text.find("\r\n", pos);
    if (eol == std::string_view::npos) return std::nullopt;
    if (eol == pos) {
      out.body_offset = pos + 2;
      return out;
    }
    const std::string_view line = text.substr(pos, eol - pos);
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    std::string_view name = line.substr(0, colon);
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    out.headers.entries.emplace_back(std::string(name), std::string(value));
    pos = eol + 2;
  }
}

inline std::vector<std::string> split_ws(std::string_view s, int max_parts) {
  std::vector<std::string> parts;
  std::size_t i = 0;
  while (i < s.size() && static_cast<int>(parts.size()) < max_parts) {
    while (i < s.size() && s[i] == ' ') ++i;
    if (i >= s.size()) break;
    if (static_cast<int>(parts.size()) == max_parts - 1) {
      parts.emplace_back(s.substr(i));
      break;
    }
    const auto sp = s.find(' ', i);
    if (sp == std::string_view::npos) {
      parts.emplace_back(s.substr(i));
      break;
    }
    parts.emplace_back(s.substr(i, sp - i));
    i = sp + 1;
  }
  return parts;
}

struct Request {
  std::string method, target, version;
  Headers headers;
  Bytes body;
};

struct Response {
  std::string version;
  int status = 0;
  std::string reason;
  Headers headers;
  Bytes body;
};

inline std::string_view text_of(BytesView raw) {
  return {reinterpret_cast<const char*>(raw.data()), raw.size()};
}

inline std::optional<Request> decode_http_request(BytesView raw) {
  auto head = parse_head(text_of(raw));
  if (!head) return std::nullopt;
  auto parts = split_ws(head->start_line, 3);
  if (parts.size() != 3 || !parts[2].starts_with("HTTP/")) return std::nullopt;
  Request req;
  req.method = parts[0];
  req.target = parts[1];
  req.version = parts[2];
  req.headers = std::move(head->headers);
  req.body.assign(raw.begin() + static_cast<std::ptrdiff_t>(head->body_offset),
                  raw.end());
  return req;
}

inline std::optional<Response> decode_http_response(BytesView raw) {
  auto head = parse_head(text_of(raw));
  if (!head) return std::nullopt;
  auto parts = split_ws(head->start_line, 3);
  if (parts.size() < 2 || !parts[0].starts_with("HTTP/")) return std::nullopt;
  Response res;
  res.version = parts[0];
  int status = 0;
  const auto [p, ec] = std::from_chars(
      parts[1].data(), parts[1].data() + parts[1].size(), status);
  if (ec != std::errc{} || p != parts[1].data() + parts[1].size())
    return std::nullopt;
  res.status = status;
  res.reason = parts.size() > 2 ? parts[2] : "";
  res.headers = std::move(head->headers);
  res.body.assign(raw.begin() + static_cast<std::ptrdiff_t>(head->body_offset),
                  raw.end());
  return res;
}

/// nullptr when roomnet::decode_http_request and the reference agree on
/// every field (headers in order, body bytes), else the first that differs.
inline const char* http_request_differs(BytesView raw) {
  const auto got = roomnet::decode_http_request(raw);
  const auto want = decode_http_request(raw);
  if (got.has_value() != want.has_value()) return "accept/reject";
  if (!got) return nullptr;
  if (got->method != want->method || got->target != want->target ||
      got->version != want->version)
    return "start line";
  if (got->headers.entries() != want->headers.entries) return "headers";
  return got->body == want->body ? nullptr : "body";
}

/// As http_request_differs, for responses.
inline const char* http_response_differs(BytesView raw) {
  const auto got = roomnet::decode_http_response(raw);
  const auto want = decode_http_response(raw);
  if (got.has_value() != want.has_value()) return "accept/reject";
  if (!got) return nullptr;
  if (got->version != want->version || got->status != want->status ||
      got->reason != want->reason)
    return "start line";
  if (got->headers.entries() != want->headers.entries) return "headers";
  return got->body == want->body ? nullptr : "body";
}

// ------------------------------------------------------------------ SSDP

/// std::atoi's value, or nullopt where atoi is undefined (out of int range).
inline std::optional<int> defined_atoi(const std::string& s) {
  errno = 0;
  const long long v = std::strtoll(s.c_str(), nullptr, 10);
  if (errno == ERANGE || v < INT_MIN || v > INT_MAX) return std::nullopt;
  return static_cast<int>(v);
}

/// The old decode_ssdp. `mx_defined` is false when the MX header is out of
/// int range: atoi was undefined there, so `mx` carries no reference value.
inline std::optional<SsdpMessage> decode_ssdp(BytesView raw,
                                              bool& mx_defined) {
  mx_defined = true;
  SsdpMessage msg;
  if (auto req = decode_http_request(raw)) {
    const Headers& h = req->headers;
    if (req->method == "M-SEARCH") {
      msg.kind = SsdpKind::kMSearch;
      msg.search_target = h.get("ST").value_or("");
      msg.server = h.get("USER-AGENT").value_or("");
      if (auto mx = h.get("MX")) {
        const auto v = defined_atoi(*mx);
        mx_defined = v.has_value();
        msg.mx = v.value_or(0);
      }
    } else if (req->method == "NOTIFY") {
      msg.kind = SsdpKind::kNotify;
      msg.search_target = h.get("NT").value_or("");
      msg.nts = h.get("NTS").value_or("");
      msg.usn = h.get("USN").value_or("");
      msg.server = h.get("SERVER").value_or("");
      msg.location = h.get("LOCATION").value_or("");
    } else {
      return std::nullopt;
    }
    return msg;
  }
  if (auto res = decode_http_response(raw)) {
    if (res->status != 200 || !res->headers.get("ST")) return std::nullopt;
    msg.kind = SsdpKind::kResponse;
    msg.search_target = res->headers.get("ST").value_or("");
    msg.usn = res->headers.get("USN").value_or("");
    msg.server = res->headers.get("SERVER").value_or("");
    msg.location = res->headers.get("LOCATION").value_or("");
    return msg;
  }
  return std::nullopt;
}

/// nullptr when both decodes agree on every field, else the first field that
/// differs. `compare_mx` false skips `mx` (an out-of-range reference value).
inline const char* ssdp_mismatch(const std::optional<SsdpMessage>& got,
                                 const std::optional<SsdpMessage>& want,
                                 bool compare_mx = true) {
  if (got.has_value() != want.has_value()) return "accept/reject";
  if (!got) return nullptr;
  if (got->kind != want->kind) return "kind";
  if (got->search_target != want->search_target) return "search_target";
  if (got->usn != want->usn) return "usn";
  if (got->server != want->server) return "server";
  if (got->location != want->location) return "location";
  if (got->nts != want->nts) return "nts";
  if (compare_mx && got->mx != want->mx) return "mx";
  if (got->extra_headers != want->extra_headers) return "extra_headers";
  return nullptr;
}

/// Decodes `raw` with roomnet::decode_ssdp and the reference; the first
/// differing field or nullptr.
inline const char* ssdp_differs(BytesView raw) {
  bool mx_defined = true;
  const auto want = decode_ssdp(raw, mx_defined);
  if (const char* m = ssdp_mismatch(roomnet::decode_ssdp(raw), want, mx_defined))
    return m;
  // The view, read field by field (to_message would hide a slice error
  // that the owning copy repeats).
  const auto view = view_ssdp(raw);
  if (view.has_value() != want.has_value()) return "view accept/reject";
  if (!view) return nullptr;
  if (view->kind != want->kind) return "view kind";
  if (view->search_target != want->search_target) return "view search_target";
  if (view->usn != want->usn) return "view usn";
  if (view->server != want->server) return "view server";
  if (view->location != want->location) return "view location";
  if (view->nts != want->nts) return "view nts";
  if (mx_defined && view->mx != want->mx) return "view mx";
  return nullptr;
}

// ------------------------------------------------------------------- DNS

inline std::optional<DnsName> read_name(ByteReader& r, BytesView whole) {
  DnsName name;
  int jumps = 0;
  std::optional<std::size_t> resume;
  for (;;) {
    const auto len = r.u8();
    if (!len) return std::nullopt;
    if ((*len & 0xc0) == 0xc0) {
      const auto lo = r.u8();
      if (!lo) return std::nullopt;
      if (++jumps > 32) return std::nullopt;
      if (!resume) resume = r.offset();
      const std::size_t target =
          (static_cast<std::size_t>(*len & 0x3f) << 8) | *lo;
      if (target >= whole.size()) return std::nullopt;
      if (!r.seek(target)) return std::nullopt;
      continue;
    }
    if (*len == 0) break;
    if (*len > 63) return std::nullopt;
    auto label = r.str(*len);
    if (!label) return std::nullopt;
    name.labels.push_back(std::move(*label));
    if (name.labels.size() > 128) return std::nullopt;
  }
  if (resume && !r.seek(*resume)) return std::nullopt;
  return name;
}

inline Bytes encode_name_plain(const DnsName& name) {
  ByteWriter w;
  for (const auto& label : name.labels) {
    w.u8(static_cast<std::uint8_t>(std::min<std::size_t>(label.size(), 63)));
    w.str(std::string_view(label).substr(0, 63));
  }
  w.u8(0);
  return w.take();
}

inline std::optional<DnsMessage> decode_dns(BytesView raw) {
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

  for (std::uint16_t i = 0; i < *qd; ++i) {
    auto name = read_name(r, raw);
    const auto type = r.u16();
    const auto klass = r.u16();
    if (!name || !r.ok()) return std::nullopt;
    DnsQuestion q;
    q.name = std::move(*name);
    q.type = static_cast<DnsType>(*type);
    q.unicast_response = (*klass & 0x8000) != 0;
    m.questions.push_back(std::move(q));
  }
  const auto read_record = [&](std::vector<DnsRecord>& out) -> bool {
    auto name = read_name(r, raw);
    const auto type = r.u16();
    const auto klass = r.u16();
    const auto ttl = r.u32();
    const auto rdlen = r.u16();
    if (!name || !r.ok()) return false;
    const std::size_t rdata_start = r.offset();
    auto rdata = r.bytes(*rdlen);
    if (!rdata) return false;
    DnsRecord rec;
    rec.name = std::move(*name);
    rec.type = static_cast<DnsType>(*type);
    rec.cache_flush = (*klass & 0x8000) != 0;
    rec.ttl = *ttl;
    if (rec.type == DnsType::kPtr || rec.type == DnsType::kSrv) {
      ByteReader rr(raw);
      if (!rr.seek(rdata_start)) return false;
      if (rec.type == DnsType::kPtr) {
        auto target = read_name(rr, raw);
        if (!target) return false;
        rec.rdata = encode_name_plain(*target);
      } else {
        const auto pri = rr.u16();
        const auto weight = rr.u16();
        const auto p = rr.u16();
        auto target = read_name(rr, raw);
        if (!rr.ok() || !target) return false;
        ByteWriter w;
        w.u16(*pri).u16(*weight).u16(*p);
        w.raw(encode_name_plain(*target));
        rec.rdata = w.take();
      }
    } else {
      rec.rdata = std::move(*rdata);
    }
    out.push_back(std::move(rec));
    return true;
  };
  for (std::uint16_t i = 0; i < *an; ++i)
    if (!read_record(m.answers)) return std::nullopt;
  for (std::uint16_t i = 0; i < *ns; ++i)
    if (!read_record(m.authority)) return std::nullopt;
  for (std::uint16_t i = 0; i < *ar; ++i)
    if (!read_record(m.additional)) return std::nullopt;
  return m;
}

inline const char* dns_records_mismatch(const std::vector<DnsRecord>& got,
                                        const std::vector<DnsRecord>& want) {
  if (got.size() != want.size()) return "record count";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].name.labels != want[i].name.labels) return "record name";
    if (got[i].type != want[i].type) return "record type";
    if (got[i].cache_flush != want[i].cache_flush) return "cache_flush";
    if (got[i].ttl != want[i].ttl) return "ttl";
    if (got[i].rdata != want[i].rdata) return "rdata";
  }
  return nullptr;
}

/// nullptr when both decodes agree on every field (label strings and rdata
/// bytes included), else the first field that differs.
inline const char* dns_mismatch(const std::optional<DnsMessage>& got,
                                const std::optional<DnsMessage>& want) {
  if (got.has_value() != want.has_value()) return "accept/reject";
  if (!got) return nullptr;
  if (got->id != want->id) return "id";
  if (got->is_response != want->is_response) return "is_response";
  if (got->authoritative != want->authoritative) return "authoritative";
  if (got->questions.size() != want->questions.size()) return "question count";
  for (std::size_t i = 0; i < got->questions.size(); ++i) {
    const auto& a = got->questions[i];
    const auto& b = want->questions[i];
    if (a.name.labels != b.name.labels) return "question name";
    if (a.type != b.type) return "question type";
    if (a.unicast_response != b.unicast_response) return "unicast_response";
  }
  if (const char* m = dns_records_mismatch(got->answers, want->answers))
    return m;
  if (const char* m = dns_records_mismatch(got->authority, want->authority))
    return m;
  return dns_records_mismatch(got->additional, want->additional);
}

inline std::vector<std::string> labels_of(const DnsNameView& name) {
  std::vector<std::string> labels;
  name.for_each_label([&](std::string_view l) { labels.emplace_back(l); });
  return labels;
}

/// nullptr when every record of the view section reads, through the view's
/// own accessors, as the reference record does.
inline const char* dns_view_records_mismatch(
    const DnsSection<DnsRecordView>& got, const std::vector<DnsRecord>& want) {
  if (got.size() != want.size()) return "view record count";
  std::size_t i = 0;
  for (const DnsRecordView& rec : got) {
    const DnsRecord& ref = want[i++];
    if (labels_of(rec.name) != ref.name.labels) return "view record name";
    if (rec.type != ref.type) return "view record type";
    if (rec.cache_flush != ref.cache_flush) return "view cache_flush";
    if (rec.ttl != ref.ttl) return "view ttl";
    if (rec.a() != ref.a()) return "view a";
    if (rec.aaaa() != ref.aaaa()) return "view aaaa";
    std::vector<std::string> txt;
    rec.for_each_txt([&](std::string_view t) { txt.emplace_back(t); });
    if (txt != ref.txt()) return "view txt";
    const auto ptr = rec.ptr();
    const auto ref_ptr = ref.ptr();
    if (ptr.has_value() != ref_ptr.has_value() ||
        (ptr && labels_of(*ptr) != ref_ptr->labels))
      return "view ptr";
    const auto srv = rec.srv();
    const auto ref_srv = ref.srv();
    if (srv.has_value() != ref_srv.has_value() ||
        (srv && (srv->priority != ref_srv->priority ||
                 srv->weight != ref_srv->weight || srv->port != ref_srv->port ||
                 labels_of(srv->target) != ref_srv->target.labels)))
      return "view srv";
    if (!ptr && !srv &&
        !std::equal(rec.rdata.begin(), rec.rdata.end(), ref.rdata.begin(),
                    ref.rdata.end()))
      return "view rdata";
  }
  return nullptr;
}

/// nullptr when the view reads as the reference message field for field.
inline const char* dns_view_mismatch(const std::optional<DnsView>& got,
                                     const std::optional<DnsMessage>& want) {
  if (got.has_value() != want.has_value()) return "view accept/reject";
  if (!got) return nullptr;
  if (got->id != want->id) return "view id";
  if (got->is_response != want->is_response) return "view is_response";
  if (got->authoritative != want->authoritative) return "view authoritative";
  if (got->questions.size() != want->questions.size())
    return "view question count";
  std::size_t i = 0;
  for (const DnsQuestionView& q : got->questions) {
    const DnsQuestion& ref = want->questions[i++];
    if (labels_of(q.name) != ref.name.labels) return "view question name";
    if (q.name.to_string() != ref.name.to_string()) return "view to_string";
    if (!q.name.iequals(ref.name.to_string())) return "view iequals";
    if (q.type != ref.type) return "view question type";
    if (q.unicast_response != ref.unicast_response)
      return "view unicast_response";
  }
  if (const char* m = dns_view_records_mismatch(got->answers, want->answers))
    return m;
  if (const char* m = dns_view_records_mismatch(got->authority, want->authority))
    return m;
  return dns_view_records_mismatch(got->additional, want->additional);
}

/// Reads `raw` with roomnet::view_dns and roomnet::decode_dns, and decodes
/// it with the reference; the first differing field or nullptr.
inline const char* dns_differs(BytesView raw) {
  const auto want = decode_dns(raw);
  if (const char* m = dns_mismatch(roomnet::decode_dns(raw), want)) return m;
  return dns_view_mismatch(view_dns(raw), want);
}

}  // namespace roomnet::reference
