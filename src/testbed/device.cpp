#include "testbed/device.hpp"

#include <algorithm>

#include "proto/app.hpp"
#include "proto/coap.hpp"
#include "proto/dhcpv6.hpp"
#include "proto/dns.hpp"
#include "proto/http.hpp"
#include "proto/matter.hpp"
#include "proto/media.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"

namespace roomnet {

namespace {
std::string sanitized(std::string s) {
  for (auto& c : s)
    if (c == ' ') c = '-';
  return s;
}

/// Random token over a hex-free alphabet: randomized hostnames must not
/// pattern-match as MAC material to payload analysts (or to our own
/// extractor) — the whole point of the GE/TiVo obfuscation.
std::string random_token(Rng& rng, std::size_t length) {
  static constexpr char kAlphabet[] = "ghjkmnpqrstuvwxyz";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i)
    out.push_back(kAlphabet[rng.below(sizeof kAlphabet - 1)]);
  return out;
}

void replace_all(std::string& text, std::string_view needle,
                 const std::string& value) {
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    text.replace(pos, needle.size(), value);
    pos += value.size();
  }
}
}  // namespace

TestbedDevice::TestbedDevice(Switch& net, DeviceSpec spec,
                             DeviceBehavior behavior, MacAddress mac,
                             Rng& parent_rng)
    : spec_(std::move(spec)),
      behavior_(std::move(behavior)),
      rng_(parent_rng.fork(spec_.vendor + spec_.model + mac.to_string())),
      uuid_(Uuid::from_mac(rng_, mac)),
      host_(net, mac, sanitized(spec_.vendor + "-" + spec_.model)) {
  host_.enable_ipv6(behavior_.ipv6);
  host_.responds_to_broadcast_arp = behavior_.responds_to_broadcast_arp;
  // Stealth correlates: devices ignoring broadcast ARP also drop SYNs to
  // closed ports (yielding §4.2's 54-of-93 TCP scan responders).
  host_.rst_on_closed_tcp = behavior_.responds_to_broadcast_arp;
}

std::string TestbedDevice::expand(const std::string& pattern) const {
  std::string out = pattern;
  const std::string mac = host_.mac().to_string();
  const std::string mac_plain = host_.mac().to_string_plain();
  replace_all(out, "{MAC}", mac);
  replace_all(out, "{MACPLAIN}", mac_plain);
  replace_all(out, "{MACTAIL}", mac_plain.substr(6));
  replace_all(out, "{UUID}", uuid_.to_string());
  replace_all(out, "{NAME}", behavior_.display_name.empty()
                                 ? spec_.vendor + " " + spec_.model
                                 : behavior_.display_name);
  replace_all(out, "{MODEL}", spec_.model);
  replace_all(out, "{SERIAL}", behavior_.upnp_serial_is_mac
                                   ? mac
                                   : mac_plain.substr(4) + "SN");
  return out;
}

std::string TestbedDevice::dhcp_hostname() {
  switch (behavior_.hostname_policy) {
    case HostnamePolicy::kNone:
      return "";
    case HostnamePolicy::kModel:
      return sanitized(spec_.vendor + "-" + spec_.model);
    case HostnamePolicy::kNameWithMac:
      return sanitized(spec_.vendor + "-" + spec_.model) + "-" +
             host_.mac().to_string_plain();
    case HostnamePolicy::kVendorPartialMac:
      return spec_.vendor + "-" + host_.mac().to_string_plain().substr(8);
    case HostnamePolicy::kDisplayName:
      return sanitized(behavior_.display_name.empty() ? "Home-" + spec_.model
                                                      : behavior_.display_name);
    case HostnamePolicy::kRandomized:
      return "host-" + random_token(rng_, 8);
  }
  return "";
}

void TestbedDevice::start() {
  if (started_) return;
  started_ = true;
  host_.on_ip_acquired = [this](Host&) { on_ip_acquired(); };
  if (behavior_.use_dhcp) {
    host_.start_dhcp(dhcp_hostname(), behavior_.dhcp_vendor_class,
                     behavior_.dhcp_params);
  } else if (host_.has_ip()) {
    // Statically configured (the lab assigned the address up front): no
    // DHCP traffic at all — these are the paper's ~8% non-DHCP devices.
    on_ip_acquired();
  }
}

void TestbedDevice::on_ip_acquired() {
  setup_mdns();
  setup_ssdp();
  setup_services();
  schedule_periodic_behaviors();
}

void TestbedDevice::setup_mdns() {
  if (behavior_.mdns_services.empty() && behavior_.mdns_query_interval_s <= 0)
    return;
  mdns_.emplace(host_);
  mdns_->answer_multicast = behavior_.mdns_respond_multicast;
  mdns_->answer_unicast = behavior_.mdns_respond_unicast;

  std::string hostname;
  switch (behavior_.mdns_hostname_policy) {
    case HostnamePolicy::kDisplayName:
      hostname = sanitized(behavior_.display_name) + ".local";
      break;
    case HostnamePolicy::kRandomized:
      hostname = "h" + random_token(rng_, 8) + ".local";
      break;
    default:
      hostname = sanitized(spec_.vendor + "-" + spec_.model) + ".local";
  }
  mdns_->set_hostname(hostname);

  for (const auto& tmpl : behavior_.mdns_services) {
    MdnsService service;
    service.instance = expand(tmpl.instance_pattern);
    service.service_type = tmpl.service_type;
    service.port = tmpl.port;
    for (const auto& txt : tmpl.txt_patterns) service.txt.push_back(expand(txt));
    mdns_->add_service(std::move(service));
  }
  mdns_->announce();

  if (behavior_.mdns_query_interval_s > 0 && !behavior_.mdns_query_types.empty()) {
    host_.loop().schedule_periodic(
        SimTime::from_seconds(1 + rng_.uniform() * 5),
        SimTime::from_seconds(behavior_.mdns_query_interval_s), [this] {
          const auto& types = behavior_.mdns_query_types;
          mdns_->query(types[mdns_query_counter_++ % types.size()],
                       /*unicast_response=*/rng_.chance(0.2));
        });
  }
}

void TestbedDevice::setup_ssdp() {
  const bool uses_ssdp = behavior_.ssdp_respond ||
                         behavior_.ssdp_msearch_interval_s > 0 ||
                         behavior_.ssdp_notify_interval_s > 0 ||
                         behavior_.ssdp_description;
  if (!uses_ssdp) return;
  ssdp_.emplace(host_);
  ssdp_->respond_to_msearch = behavior_.ssdp_respond;
  if (!behavior_.ssdp_server.empty()) ssdp_->server_string = behavior_.ssdp_server;

  if (behavior_.ssdp_description) {
    UpnpDeviceDescription desc;
    desc.device_type = "urn:schemas-upnp-org:device:Basic:1";
    desc.friendly_name = expand("{NAME}");
    desc.manufacturer = spec_.vendor;
    desc.model_name = spec_.model;
    desc.serial_number = expand("{SERIAL}");
    desc.udn = "uuid:" + uuid_.to_string();
    desc.service_types = {"urn:schemas-upnp-org:service:ConnectionManager:1"};
    ssdp_->set_description(std::move(desc));
    ssdp_->notification_types = {"upnp:rootdevice",
                                 "urn:dial-multiscreen-org:service:dial:1"};
  }

  if (behavior_.ssdp_msearch_interval_s > 0 &&
      !behavior_.ssdp_search_targets.empty()) {
    host_.loop().schedule_periodic(
        SimTime::from_seconds(2 + rng_.uniform() * 10),
        SimTime::from_seconds(behavior_.ssdp_msearch_interval_s), [this] {
          for (const auto& st : behavior_.ssdp_search_targets)
            ssdp_->msearch(st);
        });
  }
  if (behavior_.ssdp_notify_interval_s > 0) {
    host_.loop().schedule_periodic(
        SimTime::from_seconds(3 + rng_.uniform() * 10),
        SimTime::from_seconds(behavior_.ssdp_notify_interval_s), [this] {
          if (!behavior_.ssdp_server_rotation.empty()) {
            // LG's three-firmware rotation (§5.1).
            ssdp_->server_string =
                behavior_.ssdp_server_rotation[ssdp_server_rotation_index_++ %
                                               behavior_.ssdp_server_rotation.size()];
          }
          ssdp_->notify_alive();
          if (behavior_.ssdp_notify_bad_prefix) {
            // Fire TV's misconfiguration: NOTIFY advertising a /16 address
            // that does not exist on this LAN.
            SsdpMessage bad;
            bad.kind = SsdpKind::kNotify;
            bad.search_target = "upnp:rootdevice";
            bad.nts = "ssdp:alive";
            bad.usn = "uuid:" + uuid_.to_string() + "::upnp:rootdevice";
            bad.server = ssdp_->server_string;
            bad.location = "http://192.168.0.0:49152/description.xml";
            host_.send_udp(kSsdpGroupV4, host_.ephemeral_port(), kSsdpPort,
                           encode_ssdp(bad));
          }
        });
  }
}

void TestbedDevice::setup_services() {
  // -- TLS service -------------------------------------------------------
  if (behavior_.tls_server) {
    const TlsServerSpec spec = *behavior_.tls_server;
    host_.listen_tcp(spec.port, [this, spec](Host&, TcpConnection& conn) {
      conn.on_data = [this, spec](TcpConnection& c, BytesView data) {
        const auto records = decode_tls_records(data);
        for (const auto& rec : records) {
          if (!decode_client_hello(rec)) continue;
          TlsServerHello hello;
          hello.version = spec.version;
          hello.random = rng_.bytes(32);
          hello.cipher_suite =
              spec.version == TlsVersion::kTls13 ? 0x1301 : 0xc02f;
          Bytes out = encode_server_hello(hello);

          CertificateInfo cert;
          cert.key_bits = spec.key_bits;
          cert.validity_days = spec.validity_days;
          bool encrypted = false;
          switch (spec.cert) {
            case CertPolicy::kSelfSignedLocalIp:
              cert.subject_cn = host_.ip().to_string();
              cert.issuer_cn = cert.subject_cn;
              break;
            case CertPolicy::kPrivatePki:
              cert.subject_cn = sanitized(spec_.model) + ".local";
              cert.issuer_cn = "Cast Internal Root CA";
              break;
            case CertPolicy::kEncrypted:
              cert.subject_cn = sanitized(spec_.model);
              cert.issuer_cn = "Device Local CA";
              encrypted = true;
              break;
            case CertPolicy::kSelfSignedLong:
              cert.subject_cn = sanitized(spec_.vendor + "-" + spec_.model);
              cert.issuer_cn = cert.subject_cn;
              break;
          }
          const Bytes cert_record =
              encode_certificate(cert, spec.version, encrypted);
          out.insert(out.end(), cert_record.begin(), cert_record.end());
          const Bytes app = encode_application_data(
              rng_, 120 + rng_.below(400), spec.version);
          out.insert(out.end(), app.begin(), app.end());
          c.send(std::move(out));
          return;
        }
        // Non-TLS bytes on a TLS port: close (Nessus sees the handshake
        // requirement).
        c.close();
      };
    });
  }

  // -- HTTP services -----------------------------------------------------
  for (const auto& http : behavior_.http_servers) {
    host_.listen_tcp(http.port, [this, http](Host&, TcpConnection& conn) {
      conn.on_data = [this, http](TcpConnection& c, BytesView data) {
        const auto req = decode_http_request(data);
        if (!req) {
          c.close();
          return;
        }
        HttpResponse res;
        if (!http.server_banner.empty())
          res.headers.add("Server", http.server_banner);
        if (req->target == "/" || req->target == "/index.html") {
          std::string body = "<html><head>";
          if (http.jquery_12)
            body += "<script src=\"jquery-1.2.min.js\"></script>";
          body += "</head><body>" + spec_.vendor + " " + spec_.model +
                  "</body></html>";
          res.body = bytes_of(body);
        } else if (http.expose_backup && req->target == "/backup") {
          res.body = bytes_of("config_version=3\nadmin_user=admin\n"
                              "wifi_ssid=HomeNet\nrtsp_port=554\n");
        } else if (http.onvif_snapshot &&
                   req->target.find("/onvif/snapshot") == 0) {
          res.headers.add("Content-Type", "image/jpeg");
          res.body = rng_.bytes(256);  // an unauthenticated "snapshot"
        } else if (http.list_accounts && req->target == "/cgi/users") {
          res.body = bytes_of("admin\nuser\nguest\nrecordings:/mnt/sdcard/record\n");
        } else {
          res.status = 404;
          res.reason = "Not Found";
        }
        c.send(encode_http_response(res));
        c.close();
      };
    });
  }

  // -- Telnet ---------------------------------------------------------------
  if (behavior_.telnet_server) {
    host_.listen_tcp(23, [this](Host&, TcpConnection& conn) {
      conn.on_established = [this](TcpConnection& c) {
        c.send(bytes_of(spec_.vendor + " login: "));
      };
      conn.on_data = [](TcpConnection& c, BytesView) {
        c.send(bytes_of("Password: "));
      };
    });
  }

  // -- DNS server (cache-snooping-prone, §5.2) --------------------------------
  if (behavior_.dns_server) {
    host_.open_udp(53, [this](Host&, const PacketView& packet,
                              const UdpDatagram& udp) {
      if (!packet.ipv4) return;
      const DnsView* query = dns_of(packet);
      if (query == nullptr || query->is_response || query->questions.empty())
        return;
      DnsMessage response;
      response.id = query->id;
      response.is_response = true;
      const DnsQuestionView asked = query->questions.front();
      const DnsQuestion& q = response.questions.emplace_back(
          asked.name.to_name(), asked.type, asked.unicast_response);
      if (q.name.to_string() == "version.bind") {
        response.answers.push_back(
            DnsRecord::make_txt(q.name, {behavior_.dns_banner}));
      } else {
        // Cache-snooping exposure: recently "resolved" names answer with a
        // low TTL; everything else gets a fixed record. Also leaks the
        // resolver's identity (§5.2: hostname + private IP of DNS server).
        DnsRecord a = DnsRecord::make_a(q.name, Ipv4Address(93, 184, 216, 34),
                                        /*ttl=*/60);
        a.cache_flush = false;
        response.answers.push_back(std::move(a));
        response.additional.push_back(DnsRecord::make_a(
            DnsName::from_string(host_.label() + ".local"), host_.ip()));
      }
      host_.send_udp(packet.ipv4->src, 53, value(udp.src_port),
                     encode_dns(response));
    });
  }

  // -- TPLINK-SHP server -------------------------------------------------------
  if (behavior_.tplink_server) {
    const auto sysinfo = [this]() {
      TplinkSysinfo info;
      info.alias = "TP-Link Plug";
      info.dev_name = spec_.model;
      info.model = spec_.model;
      info.device_id = to_hex(rng_.fork("devid").bytes(20));
      info.hw_id = to_hex(rng_.fork("hwid").bytes(16));
      info.oem_id = to_hex(rng_.fork("oemid").bytes(16));
      info.mac = host_.mac().to_string();
      info.latitude = behavior_.latitude;
      info.longitude = behavior_.longitude;
      return info;
    };
    host_.open_udp(kTplinkPort, [this, sysinfo](Host&, const PacketView& packet,
                                                const UdpDatagram& udp) {
      if (!packet.ipv4) return;
      const auto cmd = decode_tplink_udp(udp.payload);
      if (!cmd || cmd->find_path("system.get_sysinfo") == nullptr) return;
      host_.send_udp(packet.ipv4->src, kTplinkPort, value(udp.src_port),
                     encode_tplink_udp(sysinfo().to_json()));
    });
    host_.listen_tcp(kTplinkPort, [this, sysinfo](Host&, TcpConnection& conn) {
      conn.on_data = [this, sysinfo](TcpConnection& c, BytesView data) {
        const auto cmd = decode_tplink_tcp(data);
        if (!cmd) return;
        // Unauthenticated control (§5.1): any command succeeds.
        if (cmd->find_path("system.get_sysinfo") != nullptr) {
          c.send(encode_tplink_tcp(sysinfo().to_json()));
        } else {
          json::Object ok;
          ok.emplace("err_code", 0);
          c.send(encode_tplink_tcp(json::Value(std::move(ok))));
        }
      };
    });
  }

  // -- CoAP server (IoTivity-ish) ---------------------------------------------
  if (behavior_.coap_server) {
    host_.open_udp(kCoapPort, [this](Host&, const PacketView& packet,
                                     const UdpDatagram& udp) {
      if (!packet.ipv4) return;
      const auto msg = decode_coap(udp.payload);
      if (!msg || msg->code != kCoapGet) return;
      CoapMessage res;
      res.type = CoapType::kAck;
      res.code = kCoapContent;
      res.message_id = msg->message_id;
      res.token = msg->token;
      res.payload = bytes_of(R"([{"href":"/oic/res","rt":"oic.wk.res"}])");
      host_.send_udp(packet.ipv4->src, kCoapPort, value(udp.src_port),
                     encode_coap(res));
    });
  }

  // -- misc open ports ---------------------------------------------------------
  for (const std::uint16_t port : behavior_.misc_tcp_open) {
    host_.listen_tcp(port, [this](Host&, TcpConnection& conn) {
      conn.on_data = [this](TcpConnection& c, BytesView) {
        c.send(rng_.bytes(16));
        c.close();
      };
    });
  }
  for (const std::uint16_t port : behavior_.misc_udp_open) {
    host_.open_udp(port, [](Host&, const PacketView&, const UdpDatagram&) {});
  }
}

void TestbedDevice::schedule_periodic_behaviors() {
  EventLoop& loop = host_.loop();
  const auto jitter = [this](double base) {
    return SimTime::from_seconds(base * (0.5 + rng_.uniform()));
  };

  if (behavior_.eapol_interval_s > 0) {
    loop.schedule_periodic(jitter(30),
                           SimTime::from_seconds(behavior_.eapol_interval_s),
                           [this] { host_.send_eapol_key(rng_); });
  }
  if (behavior_.llc_xid) {
    loop.schedule_periodic(jitter(60), SimTime::from_seconds(1800),
                           [this] { host_.send_llc_xid_broadcast(); });
  }
  if (behavior_.ping_gateway_interval_s > 0) {
    loop.schedule_periodic(
        jitter(20), SimTime::from_seconds(behavior_.ping_gateway_interval_s),
        [this] {
          host_.send_icmp_echo(Ipv4Address((host_.ip().value() & 0xffffff00) | 1));
        });
  }
  if (behavior_.ipv6) {
    // DHCPv6 Solicit to ff02::1:2 at boot and every ~4 h: the DUID-LL inside
    // broadcasts the MAC to every multicast listener.
    loop.schedule_periodic(jitter(20), SimTime::from_hours(4), [this] {
      Dhcpv6Message solicit;
      solicit.type = Dhcpv6Type::kSolicit;
      solicit.transaction_id =
          static_cast<std::uint32_t>(rng_.next_u32() & 0xffffff);
      solicit.set_client_duid_ll(host_.mac());
      solicit.set_fqdn(host_.label());
      host_.send_udp_v6(dhcpv6_multicast_group(), kDhcpv6ClientPort,
                        kDhcpv6ServerPort, encode_dhcpv6(solicit));
    });
  }
  if (behavior_.matter_interval_s > 0) {
    loop.schedule_periodic(jitter(60),
                           SimTime::from_seconds(behavior_.matter_interval_s),
                           [this] { send_matter_traffic(); });
  }
  if (behavior_.icmpv6_interval_s > 0 && behavior_.ipv6) {
    loop.schedule_periodic(
        jitter(15), SimTime::from_seconds(behavior_.icmpv6_interval_s), [this] {
          // Probe a pseudorandom link-local neighbor (the Nest Hub's 2,597
          // distinct multicast solicitations, §5.1).
          const Ipv6Address target = Ipv6Address::link_local_from_mac(
              MacAddress::from_u64(0x02a000000000ull + rng_.below(4096)));
          host_.send_neighbor_solicitation(target);
        });
  }
  if (behavior_.arp_daily_scan) {
    loop.schedule_periodic(jitter(120), SimTime::from_hours(24),
                           [this] { host_.arp_scan_subnet(); });
  }
  if (behavior_.arp_unicast_probes) {
    loop.schedule_periodic(jitter(600), SimTime::from_hours(6),
                           [this] { arp_probe_known_peers(); });
  }
  if (behavior_.arp_public_ip_probe) {
    loop.schedule_periodic(jitter(300), SimTime::from_hours(12), [this] {
      host_.arp_request(Ipv4Address(8, 8, 8, 8));  // §5.1: public-IP requests
    });
  }
  if (behavior_.tplink_scan_interval_s > 0) {
    loop.schedule_periodic(
        jitter(90), SimTime::from_seconds(behavior_.tplink_scan_interval_s),
        [this] { send_tplink_scan(); });
  }
  if (behavior_.tuya_beacon) {
    loop.schedule_periodic(jitter(10),
                           SimTime::from_seconds(behavior_.tuya_interval_s),
                           [this] { send_tuya_beacon(); });
  }
  if (behavior_.coap_query_interval_s > 0) {
    loop.schedule_periodic(
        jitter(45), SimTime::from_seconds(behavior_.coap_query_interval_s),
        [this] { send_coap_query(); });
  }
  if (behavior_.lifx_beacon_interval_s > 0) {
    loop.schedule_periodic(
        jitter(200), SimTime::from_seconds(behavior_.lifx_beacon_interval_s),
        [this] { send_lifx_beacon(); });
  }
  if (behavior_.unknown_beacon_interval_s > 0) {
    loop.schedule_periodic(
        jitter(30), SimTime::from_seconds(behavior_.unknown_beacon_interval_s),
        [this] { send_unknown_beacon(); });
  }
  if (behavior_.rtp_interval_s > 0) {
    loop.schedule_periodic(jitter(120),
                           SimTime::from_seconds(behavior_.rtp_interval_s),
                           [this] { send_rtp_beacon(); });
  }
  if (behavior_.cluster_udp_interval_s > 0) {
    loop.schedule_periodic(
        jitter(30), SimTime::from_seconds(behavior_.cluster_udp_interval_s),
        [this] { send_cluster_udp(); });
  }
  if (behavior_.cluster_tls_interval_s > 0) {
    loop.schedule_periodic(
        jitter(60), SimTime::from_seconds(behavior_.cluster_tls_interval_s),
        [this] { dial_cluster_tls(); });
  }
  if (behavior_.http_poll_interval_s > 0) {
    loop.schedule_periodic(
        jitter(90), SimTime::from_seconds(behavior_.http_poll_interval_s),
        [this] { poll_peer_http(); });
  }
}

void TestbedDevice::poll_peer_http() {
  TestbedDevice* peer = coordinator_;
  if (peer == nullptr || peer == this || !peer->host().has_ip()) return;
  if (peer->behavior().http_servers.empty()) return;
  const std::uint16_t port = peer->behavior().http_servers.front().port;
  auto& conn = host_.connect_tcp(peer->host().ip(), port);
  conn.on_established = [this](TcpConnection& c) {
    HttpRequest req;
    req.target = "/setup/eureka_info";
    if (!behavior_.http_client_user_agent.empty())
      req.headers.add("User-Agent", behavior_.http_client_user_agent);
    c.send(encode_http_request(req));
  };
  conn.on_data = [](TcpConnection& c, BytesView) { c.close(); };
}

void TestbedDevice::arp_probe_known_peers() {
  // Targeted (MAC-addressed) ARP requests to every cached peer; everyone
  // answers these even when they ignore broadcast sweeps (§5.1).
  for (const auto& [ip, mac] : host_.arp_cache()) {
    ArpPacket probe;
    probe.op = ArpOp::kRequest;
    probe.sender_mac = host_.mac();
    probe.sender_ip = host_.ip();
    probe.target_mac = mac;
    probe.target_ip = ip;
    host_.send_arp(probe, mac);
  }
}

void TestbedDevice::send_tplink_scan() {
  // Broadcast get_sysinfo to the subnet (how Echo/Google find TP-Link gear).
  const Ipv4Address bcast(host_.ip().value() | 0xff);
  host_.send_udp(bcast, host_.ephemeral_port(), kTplinkPort,
                 encode_tplink_udp(tplink_get_sysinfo_request()));
}

void TestbedDevice::send_tuya_beacon() {
  TuyaDiscovery d;
  d.gw_id = to_hex(rng_.fork("gwid").bytes(10));
  d.ip = host_.ip().to_string();
  d.product_key = "key" + to_hex(rng_.fork("pk").bytes(6));
  const Ipv4Address bcast(host_.ip().value() | 0xff);
  host_.send_udp(bcast, host_.ephemeral_port(), kTuyaPortPlain,
                 encode_tuya_discovery(d, rtp_sequence_++));
}

void TestbedDevice::send_coap_query() {
  CoapMessage get;
  get.type = CoapType::kNonConfirmable;
  get.code = kCoapGet;
  get.message_id = rtp_sequence_++;
  get.set_uri_path("oic/res");
  host_.send_udp(Ipv4Address(224, 0, 1, 187), host_.ephemeral_port(), kCoapPort,
                 encode_coap(get));
}

void TestbedDevice::send_lifx_beacon() {
  // Echo's unexplained UDP 56700 broadcast (Lifx discovery format: binary,
  // unclassifiable by the tools — the §5.1 "unidentified traffic" example).
  ByteWriter w;
  w.u16_le(41);          // Lifx header size
  w.u16_le(0x3400);      // protocol + addressable bits
  w.u32_le(0);           // source
  w.fill(0, 8);          // target
  w.raw(rng_.bytes(25));
  host_.send_udp(Ipv4Address(255, 255, 255, 255), host_.ephemeral_port(), 56700,
                 w.take());
}

void TestbedDevice::send_unknown_beacon() {
  Bytes payload = rng_.bytes(24 + rng_.below(48));
  if (behavior_.unknown_beacon_d0 && !payload.empty()) payload[0] = 0xd0;
  const Ipv4Address bcast(host_.ip().value() | 0xff);
  host_.send_udp(bcast, host_.ephemeral_port(), behavior_.unknown_beacon_port,
                 payload);
}

void TestbedDevice::send_matter_traffic() {
  // Commissionable-node advertisement over mDNS (the §7 exposure: the
  // instance name is MAC-derived in today's firmware)...
  MatterCommissionable node;
  node.discriminator = static_cast<std::uint16_t>(mac().to_u64() & 0xfff);
  node.vendor_id = 0xfff1;
  node.product_id = 0x8001;
  node.instance = mac().to_string_plain();
  const DnsMessage advert = matter_commissionable_advertisement(
      node, host_.label() + ".local", host_.ip());
  host_.send_udp(kMdnsGroupV4, kMdnsPort, kMdnsPort, encode_dns(advert));

  // ...plus operational session traffic to the platform coordinator on the
  // Matter port (opaque protected payload, like the real wire).
  TestbedDevice* peer = coordinator_;
  if (peer == nullptr || peer == this || !peer->host().has_ip()) return;
  MatterMessage msg;
  msg.session_id = static_cast<std::uint16_t>(1 + (mac().to_u64() & 0x7fff));
  msg.message_counter = rtp_sequence_++;
  msg.source_node = mac().to_u64();
  msg.payload = rng_.bytes(32 + rng_.below(64));
  host_.send_udp(peer->host().ip(), kMatterPort, kMatterPort,
                 encode_matter(msg));
}

void TestbedDevice::send_cluster_udp() {
  // The unidentified UDP cluster protocol (Figure 4e): opaque binary to the
  // platform coordinator on an unregistered port. First byte pinned below
  // 0x40 so neither the RTP nor the TPLINK heuristic can claim it — this
  // traffic is *meant* to stay unclassifiable, like the real thing.
  TestbedDevice* peer = coordinator_;
  if (peer == nullptr || peer == this || !peer->host().has_ip()) return;
  Bytes payload = rng_.bytes(40 + rng_.below(80));
  payload[0] &= 0x3f;
  host_.send_udp(peer->host().ip(), behavior_.cluster_udp_port,
                 behavior_.cluster_udp_port, std::move(payload));
}

void TestbedDevice::send_rtp_beacon() {
  TestbedDevice* peer = coordinator_;
  if (peer == nullptr || peer == this || !peer->host().has_ip()) return;
  RtpPacket rtp;
  rtp.payload_type = 97;
  rtp.sequence = rtp_sequence_++;
  rtp.timestamp = static_cast<std::uint32_t>(host_.loop().now().us());
  rtp.ssrc = static_cast<std::uint32_t>(host_.mac().to_u64());
  rtp.payload = rng_.bytes(160);
  host_.send_udp(peer->host().ip(), behavior_.rtp_port, behavior_.rtp_port,
                 encode_rtp(rtp));
}

void TestbedDevice::dial_cluster_tls() {
  TestbedDevice* peer = coordinator_;
  if (peer == nullptr || peer == this || !peer->host().has_ip()) return;
  if (!peer->behavior().tls_server) return;
  const TlsServerSpec& server = *peer->behavior().tls_server;
  auto& conn = host_.connect_tcp(peer->host().ip(), server.port);
  const TlsVersion version = server.version;
  conn.on_established = [this, version](TcpConnection& c) {
    TlsClientHello hello;
    hello.version = version;
    hello.random = rng_.bytes(32);
    hello.cipher_suites = version == TlsVersion::kTls13
                              ? std::vector<std::uint16_t>{0x1301, 0x1302}
                              : std::vector<std::uint16_t>{0xc02f, 0xc030};
    c.send(encode_client_hello(hello));
  };
  conn.on_data = [this, version](TcpConnection& c, BytesView) {
    // Server flight received; exchange a little application data and close.
    c.send(encode_application_data(rng_, 80 + rng_.below(200), version));
    c.close();
  };
}

}  // namespace roomnet
