// Reference copies of the DNS and SSDP encoders, and of the mDNS endpoint's
// answer, as they were before the encoders wrote straight into their
// output: DNS compressed names through a map of joined suffix strings, SSDP
// composed HttpRequest/HttpResponse headers and serialized them, and the
// endpoint built its answer message for every query it matched. proto_test
// and sim_test require byte-identical output from the current code. They
// bump no encode counter.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "proto/dns.hpp"
#include "proto/http.hpp"
#include "proto/ssdp.hpp"

namespace roomnet::reference {

/// Writes a name with suffix compression: each full suffix already emitted
/// is reused via a compression pointer.
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

inline Bytes encode_dns(const DnsMessage& msg) {
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

inline Bytes encode_ssdp(const SsdpMessage& msg) {
  switch (msg.kind) {
    case SsdpKind::kMSearch: {
      HttpRequest req;
      req.method = "M-SEARCH";
      req.target = "*";
      req.headers.add("HOST", "239.255.255.250:1900");
      req.headers.add("MAN", "\"ssdp:discover\"");
      req.headers.add("MX", std::to_string(msg.mx));
      req.headers.add("ST", msg.search_target);
      if (!msg.server.empty()) req.headers.add("USER-AGENT", msg.server);
      for (const auto& [k, v] : msg.extra_headers) req.headers.add(k, v);
      return encode_http_request(req);
    }
    case SsdpKind::kNotify: {
      HttpRequest req;
      req.method = "NOTIFY";
      req.target = "*";
      req.headers.add("HOST", "239.255.255.250:1900");
      req.headers.add("NT", msg.search_target);
      req.headers.add("NTS", msg.nts.empty() ? "ssdp:alive" : msg.nts);
      if (!msg.usn.empty()) req.headers.add("USN", msg.usn);
      if (!msg.server.empty()) req.headers.add("SERVER", msg.server);
      if (!msg.location.empty()) req.headers.add("LOCATION", msg.location);
      for (const auto& [k, v] : msg.extra_headers) req.headers.add(k, v);
      return encode_http_request(req);
    }
    case SsdpKind::kResponse: {
      HttpResponse res;
      res.status = 200;
      res.reason = "OK";
      res.headers.add("CACHE-CONTROL", "max-age=1800");
      res.headers.add("EXT", "");
      if (!msg.location.empty()) res.headers.add("LOCATION", msg.location);
      if (!msg.server.empty()) res.headers.add("SERVER", msg.server);
      res.headers.add("ST", msg.search_target);
      if (!msg.usn.empty()) res.headers.add("USN", msg.usn);
      for (const auto& [k, v] : msg.extra_headers) res.headers.add(k, v);
      return encode_http_response(res);
    }
  }
  return {};
}

/// One service as MdnsEndpoint advertises it.
struct AnswerService {
  std::string instance;
  std::string service_type;
  std::uint16_t port = 80;
  std::vector<std::string> txt;
};

/// MdnsEndpoint's answer for `service`, as it built one per matched query:
/// `hostname` is the endpoint's hostname, or the host label plus ".local";
/// `link_local` is set when the host has IPv6 on.
inline DnsMessage build_answer(const AnswerService& service,
                               const std::string& hostname, Ipv4Address ip,
                               const std::optional<Ipv6Address>& link_local) {
  DnsMessage msg;
  msg.is_response = true;
  msg.authoritative = true;
  const DnsName type_name = DnsName::from_string(service.service_type);
  DnsName instance_name = type_name;
  instance_name.labels.insert(instance_name.labels.begin(), service.instance);
  const DnsName host_name = DnsName::from_string(hostname);

  msg.answers.push_back(DnsRecord::make_ptr(type_name, instance_name));
  SrvData srv;
  srv.port = service.port;
  srv.target = host_name;
  msg.answers.push_back(DnsRecord::make_srv(instance_name, srv));
  if (!service.txt.empty())
    msg.answers.push_back(DnsRecord::make_txt(instance_name, service.txt));
  msg.additional.push_back(DnsRecord::make_a(host_name, ip));
  if (link_local)
    msg.additional.push_back(DnsRecord::make_aaaa(host_name, *link_local));
  return msg;
}

}  // namespace roomnet::reference
