#include "scan/vuln.hpp"

#include <utility>

#include "exec/parallel.hpp"
#include "exec/task_pool.hpp"
#include "proto/app.hpp"
#include "proto/http.hpp"

namespace roomnet {

std::string to_string(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "Info";
    case Severity::kLow: return "Low";
    case Severity::kMedium: return "Medium";
    case Severity::kHigh: return "High";
    case Severity::kCritical: return "Critical";
  }
  return "?";
}

void ServiceProber::start(const std::vector<PortScanReport>& reports) {
  audits_.clear();
  double t = 0.5;
  for (const auto& report : reports) {
    DeviceAudit audit;
    audit.target = report.target;
    for (const std::uint16_t port : report.open_tcp) {
      ServiceObservation obs;
      obs.port = port;
      obs.udp = false;
      obs.inferred_service = infer_service_from_port(port, false);
      audit.services.push_back(std::move(obs));
    }
    for (const std::uint16_t port : report.open_udp) {
      ServiceObservation obs;
      obs.port = port;
      obs.udp = true;
      obs.inferred_service = infer_service_from_port(port, true);
      audit.services.push_back(std::move(obs));
    }
    audits_.push_back(std::move(audit));
  }
  for (auto& audit : audits_) {
    for (std::size_t i = 0; i < audit.services.size(); ++i) {
      if (audit.services[i].udp) {
        probe_udp(audit, i, t);
      } else {
        probe_tcp(audit, i, t);
      }
      t += 0.25;
    }
  }
  duration_ = SimTime::from_seconds(t + 10);
}

void ServiceProber::probe_tcp(DeviceAudit& audit, std::size_t service_index,
                              double at_s) {
  const Ipv4Address ip = audit.target.ip;
  const std::uint16_t port = audit.services[service_index].port;
  ServiceObservation* obs = &audit.services[service_index];

  // Probe 1: TLS ClientHello — reads version + certificate metadata.
  scanner_->loop().schedule_in(SimTime::from_seconds(at_s), [this, ip, port, obs] {
    auto& conn = scanner_->connect_tcp(ip, port);
    conn.on_established = [this](TcpConnection& c) {
      TlsClientHello hello;
      hello.version = TlsVersion::kTls12;
      hello.random = rng_.bytes(32);
      hello.cipher_suites = {0x1301, 0xc02f, 0xc030};
      c.send(encode_client_hello(hello));
    };
    conn.on_data = [obs](TcpConnection& c, BytesView data) {
      for (const auto& record : decode_tls_records(data)) {
        if (const auto hello = decode_server_hello(record)) {
          obs->tls_version = hello->version;
          obs->corrected_service = "tls";
        }
        if (const auto cert = decode_certificate(record)) obs->certificate = cert;
      }
      c.close();
    };
  });

  // Probe 2: HTTP GET / plus the sensitive paths (§5.2 camera findings).
  const double http_at = at_s + 0.08;
  const auto http_get = [this, ip, port, obs](const std::string& path,
                                              double when) {
    scanner_->loop().schedule_in(
        SimTime::from_seconds(when), [this, ip, port, obs, path] {
          auto& conn = scanner_->connect_tcp(ip, port);
          conn.on_established = [path](TcpConnection& c) {
            HttpRequest req;
            req.target = path;
            req.headers.add("User-Agent", "roomnet-prober/1.0");
            c.send(encode_http_request(req));
          };
          conn.on_data = [obs, path](TcpConnection& c, BytesView data) {
            const auto res = decode_http_response(data);
            if (res) {
              if (const auto server = res->headers.get("Server");
                  server && obs->banner.empty())
                obs->banner = *server;
              const std::string body = string_of(BytesView(res->body));
              if (res->status == 200) {
                obs->corrected_service = "http";
                if (path == "/backup" && !body.empty())
                  obs->backup_exposed = true;
                if (path.find("/onvif/snapshot") == 0 &&
                    res->headers.get("Content-Type") == "image/jpeg")
                  obs->snapshot_exposed = true;
                if (path == "/cgi/users" && !body.empty())
                  obs->accounts_exposed = true;
                if (body.find("jquery-1.2") != std::string::npos)
                  obs->jquery_12 = true;
              }
            } else if (!data.empty() && obs->banner.empty() &&
                       obs->corrected_service.empty()) {
              // Not HTTP: keep the first bytes as an opaque banner (telnet
              // greetings land here).
              obs->banner = string_of(data.first(std::min<std::size_t>(
                  data.size(), 48)));
              obs->corrected_service = "banner";
            }
            c.close();
          };
        });
  };
  http_get("/", http_at);
  http_get("/backup", http_at + 0.02);
  http_get("/onvif/snapshot?channel=1", http_at + 0.04);
  http_get("/cgi/users", http_at + 0.06);

  // Probe 3: bare connect — captures greeting banners (telnet).
  scanner_->loop().schedule_in(
      SimTime::from_seconds(at_s + 0.18), [this, ip, port, obs] {
        auto& conn = scanner_->connect_tcp(ip, port);
        conn.on_data = [obs](TcpConnection& c, BytesView data) {
          const std::string text = string_of(data);
          if (text.find("login:") != std::string::npos) {
            obs->corrected_service = "telnet";
            if (obs->banner.empty()) obs->banner = text;
          }
          c.close();
        };
        conn.on_established = [](TcpConnection&) {};
      });
}

void ServiceProber::probe_udp(DeviceAudit& audit, std::size_t service_index,
                              double at_s) {
  const Ipv4Address ip = audit.target.ip;
  ServiceObservation* obs = &audit.services[service_index];
  if (obs->port != 53) return;  // only DNS has a deeper UDP probe

  // version.bind, then a cache-snoop test (recursive name, low TTL reply).
  scanner_->loop().schedule_in(SimTime::from_seconds(at_s), [this, ip, obs] {
    const std::uint16_t sport = scanner_->ephemeral_port();
    scanner_->open_udp(sport, [obs](Host&, const PacketView& packet,
                                    const UdpDatagram&) {
      const DnsView* msg = dns_of(packet);
      if (msg == nullptr || !msg->is_response) return;
      for (const DnsRecordView& answer : msg->answers) {
        bool first = true;
        answer.for_each_txt([&](std::string_view txt) {
          if (!std::exchange(first, false)) return;
          obs->banner = txt;
          obs->corrected_service = "dns";
        });
        if (answer.type == DnsType::kA && answer.ttl < 300) {
          obs->dns_cache_snoopable = true;
          obs->corrected_service = "dns";
        }
      }
      for (const DnsRecordView& extra : msg->additional) {
        if (extra.type == DnsType::kA) obs->dns_reveals_resolver = true;
      }
    });
    DnsMessage version_query;
    version_query.id = 0x7001;
    version_query.questions.push_back(
        {DnsName::from_string("version.bind"), DnsType::kTxt, false});
    scanner_->send_udp(ip, sport, 53, encode_dns(version_query));
    DnsMessage snoop_query;
    snoop_query.id = 0x7002;
    snoop_query.questions.push_back(
        {DnsName::from_string("recently-visited.example.com"), DnsType::kA,
         false});
    scanner_->send_udp(ip, sport, 53, encode_dns(snoop_query));
  });
}

namespace {

/// One device's findings — the rule engine body, independent per audit.
std::vector<VulnFinding> audit_findings(const DeviceAudit& audit) {
  std::vector<VulnFinding> findings;
  const auto add = [&](const DeviceAudit& a, Severity severity,
                       std::string id, std::string title, std::string evidence) {
    findings.push_back({a.target.mac, a.target.label, severity,
                        std::move(id), std::move(title), std::move(evidence)});
  };

  for (const auto& service : audit.services) {
    const std::string port_str =
        std::to_string(service.port) + (service.udp ? "/udp" : "/tcp");

    if (service.certificate) {
      const CertificateInfo& cert = *service.certificate;
      if (cert.key_bits < 128) {
        // §5.2: "one high-severity issue across all these devices that run
        // TLS on port 8009 due to the small size of the encryption key
        // (64-122 bits)" — birthday attacks, CVE-2016-2183.
        add(audit, Severity::kHigh, "CVE-2016-2183",
            "TLS service with small encryption key enables birthday attacks",
            port_str + " key=" + std::to_string(cert.key_bits) + " bits");
      }
      if (cert.validity_years() >= 10) {
        add(audit, Severity::kLow, "roomnet-cert-longlived",
            "Self-signed/leaf certificate valid for " +
                std::to_string(static_cast<int>(cert.validity_years())) +
                " years",
            port_str + " CN=" + cert.subject_cn);
      }
      if (cert.self_signed()) {
        add(audit, Severity::kInfo, "roomnet-cert-selfsigned",
            "Self-signed TLS certificate", port_str + " CN=" + cert.subject_cn);
      }
    }
    if (service.tls_version &&
        (*service.tls_version == TlsVersion::kTls10 ||
         *service.tls_version == TlsVersion::kTls11)) {
      add(audit, Severity::kMedium, "roomnet-tls-deprecated",
          "Deprecated TLS protocol version", port_str);
    }
    if (service.banner.find("SheerDNS 1.0.0") != std::string::npos) {
      // Nessus plugin 11535 (§5.2: HomePod Mini).
      add(audit, Severity::kHigh, "nessus-11535",
          "SheerDNS < 1.0.1 multiple vulnerabilities", service.banner);
    }
    if (service.dns_cache_snoopable) {
      // Nessus plugin 12217 (§5.2: HomePod Mini, WeMo plug).
      add(audit, Severity::kMedium, "nessus-12217",
          "DNS server cache snooping remote information disclosure",
          port_str);
    }
    if (service.dns_reveals_resolver) {
      add(audit, Severity::kLow, "roomnet-dns-resolver-leak",
          "DNS service reveals host name and private IP of the resolver",
          port_str);
    }
    if (service.jquery_12) {
      // §5.2: Microseven runs jQuery 1.2 — CVE-2020-11022/11023 XSS.
      add(audit, Severity::kMedium, "CVE-2020-11022",
          "Embedded jQuery 1.2 vulnerable to multiple XSS issues", port_str);
    }
    if (service.backup_exposed) {
      add(audit, Severity::kHigh, "roomnet-backup-exposure",
          "HTTP server exposes configuration backup files without "
          "authentication",
          port_str + " /backup");
    }
    if (service.snapshot_exposed) {
      add(audit, Severity::kHigh, "roomnet-onvif-snapshot",
          "Unauthenticated users can fetch camera snapshots (ONVIF)",
          port_str + " /onvif/snapshot");
    }
    if (service.accounts_exposed) {
      add(audit, Severity::kMedium, "roomnet-account-enum",
          "Service lists user accounts and recording directory", port_str);
    }
    if (service.corrected_service == "telnet" ||
        (!service.udp && service.port == 23)) {
      add(audit, Severity::kMedium, "roomnet-telnet",
          "Cleartext telnet administration service", port_str);
    }
  }
  return findings;
}

}  // namespace

std::vector<VulnFinding> scan_vulnerabilities(
    const std::vector<DeviceAudit>& audits, exec::TaskPool& pool) {
  std::vector<std::vector<VulnFinding>> per_audit = exec::parallel_map(
      pool, audits.size(),
      [&](std::size_t i) { return audit_findings(audits[i]); });
  std::vector<VulnFinding> findings;
  std::size_t total = 0;
  for (const auto& chunk : per_audit) total += chunk.size();
  findings.reserve(total);
  for (auto& chunk : per_audit)
    for (auto& finding : chunk) findings.push_back(std::move(finding));
  return findings;
}

std::vector<VulnFinding> scan_vulnerabilities(
    const std::vector<DeviceAudit>& audits) {
  exec::TaskPool serial(1);
  return scan_vulnerabilities(audits, serial);
}

}  // namespace roomnet
