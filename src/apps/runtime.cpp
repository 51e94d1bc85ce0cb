#include "apps/runtime.hpp"

#include <algorithm>
#include <functional>

#include "telemetry/metrics.hpp"

#include "analysis/exposure.hpp"
#include "analysis/identifiers.hpp"
#include "proto/app.hpp"
#include "proto/dns.hpp"
#include "proto/http.hpp"
#include "proto/json.hpp"
#include "proto/netbios.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"

namespace roomnet {

/// Mutable state accumulated during one app run.
struct AppRunner::Harvest {
  const AppSpec* app = nullptr;
  AppRunRecord* record = nullptr;
  std::set<std::string> device_macs;
  std::set<std::string> uuids;
  std::set<std::string> hostnames;
  std::set<std::string> tplink_device_ids;
  std::set<std::string> tplink_oem_ids;
  std::optional<std::pair<double, double>> geolocation;
  std::set<MacAddress> discovered_devices;
  std::vector<std::uint16_t> opened_ports;  // closed when the run ends
  /// Re-sends of the exact discovery queries already emitted, populated only
  /// when a retry budget is set. The response handlers stay open for the
  /// whole run window, so late answers to retries are harvested normally.
  std::vector<std::function<void()>> resenders;

  bool holds(AndroidPermission permission) const {
    return std::find(app->permissions.begin(), app->permissions.end(),
                     permission) != app->permissions.end();
  }
  void note_access(AppRunRecord& rec, SensitiveData data, std::string value,
                   std::string channel, bool side_channel,
                   int android_version) {
    DataAccess access;
    access.data = data;
    access.value = std::move(value);
    access.channel = std::move(channel);
    access.via_side_channel = side_channel;
    access.required = required_permission(data, android_version);
    access.permission_held = access.required ? holds(*access.required) : true;
    rec.accesses.push_back(std::move(access));
  }
};

AppRunner::AppRunner(Lab& lab) : lab_(&lab), rng_(lab.rng().fork("app-runner")) {}

void AppRunner::do_mdns_scan(Harvest& harvest) {
  Host& phone = lab_->pixel();
  AppRunRecord& record = *harvest.record;
  record.local_protocols.insert(ProtocolLabel::kMdns);

  // NsdManager-equivalent: PTR query, harvest every response payload.
  const std::uint16_t sport = kMdnsPort;
  harvest.opened_ports.push_back(sport);
  phone.open_udp(sport, [&harvest](Host&, const PacketView& packet,
                                   const UdpDatagram&) {
    const DnsView* msg = dns_of(packet);
    if (msg == nullptr || !msg->is_response) return;
    harvest.discovered_devices.insert(packet.eth.src);
    for (const auto& id : extract_identifiers(response_text(*msg))) {
      switch (id.type) {
        case IdentifierType::kMacAddress: harvest.device_macs.insert(id.value); break;
        case IdentifierType::kUuid: harvest.uuids.insert(id.value); break;
        case IdentifierType::kName: harvest.hostnames.insert(id.value); break;
      }
    }
    // The source MAC itself is visible to the multicast socket.
    harvest.device_macs.insert(packet.eth.src.to_string());
  });

  DnsMessage query;
  for (const char* type :
       {"_services._dns-sd._udp.local", "_googlecast._tcp.local",
        "_hue._tcp.local", "_airplay._tcp.local"}) {
    query.questions.push_back(
        {DnsName::from_string(type), DnsType::kPtr, false});
  }
  const Bytes payload = encode_dns(query);
  phone.send_udp(kMdnsGroupV4, sport, kMdnsPort, payload);
  if (scan_retries_ > 0)
    harvest.resenders.push_back([&phone, sport, payload] {
      phone.send_udp(kMdnsGroupV4, sport, kMdnsPort, payload);
    });
}

void AppRunner::do_ssdp_scan(Harvest& harvest, bool igd_target) {
  Host& phone = lab_->pixel();
  AppRunRecord& record = *harvest.record;
  record.local_protocols.insert(ProtocolLabel::kSsdp);

  const std::uint16_t sport = phone.ephemeral_port();
  harvest.opened_ports.push_back(sport);
  phone.open_udp(sport, [this, &harvest](Host&, const PacketView& packet,
                                         const UdpDatagram&) {
    const SsdpView* msg = ssdp_of(packet);
    if (msg == nullptr || msg->kind != SsdpKind::kResponse || !packet.ipv4)
      return;
    harvest.discovered_devices.insert(packet.eth.src);
    harvest.device_macs.insert(packet.eth.src.to_string());
    for (const auto& uuid : extract_uuids(msg->usn))
      harvest.uuids.insert(uuid);
    // Fetch the description document the LOCATION points at.
    const std::string_view location = msg->location;
    const auto port_pos = location.rfind(':');
    const auto path_pos = location.find('/', 7);
    if (port_pos == std::string_view::npos || path_pos == std::string_view::npos)
      return;
    const int port = std::atoi(
        std::string(location.substr(port_pos + 1, path_pos - port_pos - 1))
            .c_str());
    if (port <= 0 || port > 65535) return;
    Host& ph = lab_->pixel();
    auto& conn = ph.connect_tcp(packet.ipv4->src,
                                static_cast<std::uint16_t>(port));
    conn.on_established = [](TcpConnection& c) {
      HttpRequest req;
      req.target = "/description.xml";
      c.send(encode_http_request(req));
    };
    conn.on_data = [&harvest](TcpConnection& c, BytesView data) {
      const auto res = decode_http_response(data);
      if (res) {
        const auto desc =
            UpnpDeviceDescription::from_xml(string_of(BytesView(res->body)));
        if (desc) {
          for (const auto& mac : extract_macs(desc->serial_number))
            harvest.device_macs.insert(mac);
          for (const auto& uuid : extract_uuids(desc->udn))
            harvest.uuids.insert(uuid);
          if (!desc->friendly_name.empty())
            harvest.hostnames.insert(desc->friendly_name);
        }
      }
      c.close();
    };
  });

  SsdpMessage msearch;
  msearch.kind = SsdpKind::kMSearch;
  msearch.search_target =
      igd_target ? "urn:schemas-upnp-org:device:InternetGatewayDevice:1"
                 : "ssdp:all";
  const Bytes payload = encode_ssdp(msearch);
  phone.send_udp(kSsdpGroupV4, sport, kSsdpPort, payload);
  if (scan_retries_ > 0)
    harvest.resenders.push_back([&phone, sport, payload] {
      phone.send_udp(kSsdpGroupV4, sport, kSsdpPort, payload);
    });
}

void AppRunner::do_netbios_sweep(Harvest& harvest) {
  Host& phone = lab_->pixel();
  AppRunRecord& record = *harvest.record;
  record.local_protocols.insert(ProtocolLabel::kNetbios);

  const std::uint16_t sport = phone.ephemeral_port();
  harvest.opened_ports.push_back(sport);
  phone.open_udp(sport, [&harvest](Host&, const PacketView& packet,
                                   const UdpDatagram& udp) {
    const auto response = decode_netbios(udp.payload);
    if (!response) return;
    harvest.discovered_devices.insert(packet.eth.src);
    for (const auto& name : response->owned_names)
      harvest.hostnames.insert(name);
  });

  // innosdk semantics: a datagram to EVERY address in the /24, whether or
  // not a machine is assigned to it (§6.2).
  NetbiosPacket probe;
  probe.op = NetbiosOp::kNodeStatusQuery;
  probe.name = "*";
  const Bytes payload = encode_netbios(probe);
  const std::uint32_t base = phone.ip().value() & 0xffffff00;
  EventLoop& loop = phone.loop();
  for (std::uint32_t h = 1; h < 255; ++h) {
    const Ipv4Address target(base | h);
    if (target == phone.ip()) continue;
    loop.schedule_in(SimTime::from_ms(static_cast<std::int64_t>(h) * 4),
                     [&phone, target, sport, payload] {
                       phone.send_udp(target, sport, kNetbiosNsPort, payload);
                     });
  }
}

void AppRunner::do_arp_harvest(Harvest& harvest) {
  // libarp.so-style: read the phone's ARP cache (populated passively).
  Host& phone = lab_->pixel();
  harvest.record->local_protocols.insert(ProtocolLabel::kArp);
  for (const auto& [ip, mac] : phone.arp_cache()) {
    harvest.device_macs.insert(mac.to_string());
    harvest.discovered_devices.insert(mac);
  }
}

void AppRunner::do_tplink_discovery(Harvest& harvest) {
  Host& phone = lab_->pixel();
  harvest.record->local_protocols.insert(ProtocolLabel::kTplinkShp);
  const std::uint16_t sport = phone.ephemeral_port();
  harvest.opened_ports.push_back(sport);
  phone.open_udp(sport, [&harvest](Host&, const PacketView& packet,
                                   const UdpDatagram& udp) {
    const auto body = decode_tplink_udp(udp.payload);
    if (!body) return;
    const auto info = TplinkSysinfo::from_json(*body);
    if (!info) return;
    harvest.discovered_devices.insert(packet.eth.src);
    if (!info->mac.empty()) harvest.device_macs.insert(info->mac);
    if (!info->device_id.empty())
      harvest.tplink_device_ids.insert(info->device_id);
    if (!info->oem_id.empty()) harvest.tplink_oem_ids.insert(info->oem_id);
    if (info->latitude != 0 || info->longitude != 0)
      harvest.geolocation = {{info->latitude, info->longitude}};
  });
  const Ipv4Address bcast(phone.ip().value() | 0xff);
  const Bytes payload = encode_tplink_udp(tplink_get_sysinfo_request());
  phone.send_udp(bcast, sport, kTplinkPort, payload);
  if (scan_retries_ > 0)
    harvest.resenders.push_back([&phone, bcast, sport, payload] {
      phone.send_udp(bcast, sport, kTplinkPort, payload);
    });
}

void AppRunner::do_local_tls(Harvest& harvest) {
  // Pair with any TLS-speaking device and exchange application data.
  harvest.record->local_protocols.insert(ProtocolLabel::kTls);
  for (const auto& device : lab_->devices()) {
    if (!device->behavior().tls_server || !device->host().has_ip()) continue;
    Host& phone = lab_->pixel();
    auto& conn =
        phone.connect_tcp(device->host().ip(), device->behavior().tls_server->port);
    conn.on_established = [this](TcpConnection& c) {
      TlsClientHello hello;
      hello.version = TlsVersion::kTls12;
      hello.random = rng_.bytes(32);
      hello.cipher_suites = {0xc02f};
      c.send(encode_client_hello(hello));
    };
    conn.on_data = [&harvest](TcpConnection& c, BytesView) {
      harvest.discovered_devices.insert(MacAddress{});
      c.close();
    };
    return;  // one pairing per run is enough
  }
}

void AppRunner::access_phone_data(const AppSpec& app, Harvest& harvest) {
  AppRunRecord& record = *harvest.record;
  const int v = app.android_version;
  const MacAddress router_mac = lab_->router().mac();

  if (app.uploads_router_ssid) {
    // SSID via the official API needs location (Android 9); apps lacking it
    // read it via side channels (§2.1's bypass).
    const bool official = harvest.holds(AndroidPermission::kAccessFineLocation);
    harvest.note_access(record, SensitiveData::kRouterSsid, router_ssid_,
                        official ? "WifiInfo API" : "side channel", !official, v);
  }
  if (app.uploads_router_bssid) {
    const bool official = harvest.holds(AndroidPermission::kAccessFineLocation);
    harvest.note_access(record, SensitiveData::kRouterBssid,
                        router_mac.to_string(),
                        official ? "WifiInfo API" : "arp/gateway side channel",
                        !official, v);
  }
  if (app.uploads_wifi_mac) {
    harvest.note_access(record, SensitiveData::kWifiMac,
                        lab_->pixel().mac().to_string(), "NetworkInterface API",
                        false, v);
  }
  if (app.uploads_geolocation_with_ids) {
    const bool holds_location =
        harvest.holds(AndroidPermission::kAccessFineLocation) ||
        harvest.holds(AndroidPermission::kAccessCoarseLocation);
    if (holds_location) {
      harvest.note_access(record, SensitiveData::kGeolocation,
                          "42.3376,-71.0870", "LocationManager API", false, v);
      harvest.note_access(record, SensitiveData::kAaid,
                          "aaid-" + to_hex(rng_.bytes(8)), "AdvertisingId API",
                          false, v);
    } else if (harvest.geolocation) {
      // No permission — but TPLINK-SHP handed us the home's coordinates.
      harvest.note_access(record, SensitiveData::kGeolocation,
                          std::to_string(harvest.geolocation->first) + "," +
                              std::to_string(harvest.geolocation->second),
                          "tplink sysinfo side channel", true, v);
    }
  }
}

void AppRunner::build_uploads(const AppSpec& app, Harvest& harvest,
                              AppRunRecord& record) {
  const auto make_payload = [&](const std::vector<SensitiveData>& wanted) {
    json::Object payload;
    payload.emplace("pkg", app.package);
    json::Object data;
    for (const SensitiveData type : wanted) {
      json::Array values;
      switch (type) {
        case SensitiveData::kDeviceMac:
          for (const auto& mac : harvest.device_macs) values.push_back(mac);
          break;
        case SensitiveData::kDeviceUuid:
          for (const auto& uuid : harvest.uuids) values.push_back(uuid);
          break;
        case SensitiveData::kDeviceHostname:
        case SensitiveData::kLocalDeviceList:
          for (const auto& name : harvest.hostnames) values.push_back(name);
          break;
        case SensitiveData::kTplinkDeviceId:
          for (const auto& id : harvest.tplink_device_ids) values.push_back(id);
          break;
        case SensitiveData::kTplinkOemId:
          for (const auto& id : harvest.tplink_oem_ids) values.push_back(id);
          break;
        default: {
          for (const auto& access : record.accesses)
            if (access.data == type) values.push_back(access.value);
        }
      }
      if (!values.empty()) data.emplace(to_string(type), std::move(values));
    }
    payload.emplace("data", std::move(data));
    return payload;
  };

  const auto upload = [&](std::string endpoint, SdkId sdk,
                          std::vector<SensitiveData> wanted) {
    json::Object payload = make_payload(wanted);
    if (payload.at("data").as_object().empty()) return;
    CloudUpload up;
    up.endpoint = std::move(endpoint);
    up.sdk = sdk;
    // AppDynamics encodes the SSID in base64 inside event URLs (§6.2).
    if (sdk == SdkId::kAppDynamics) {
      payload.emplace("url", "https://events.claspws.tv/v1/event?ssid=" +
                                 base64_encode(BytesView(bytes_of(router_ssid_))));
    }
    up.payload_json = json::Value(std::move(payload)).dump();
    for (const SensitiveData type : wanted) {
      if (up.payload_json.find("\"" + to_string(type) + "\"") !=
          std::string::npos)
        up.contents.push_back(type);
    }
    record.uploads.push_back(std::move(up));
  };

  // First-party uploads.
  std::vector<SensitiveData> first_party;
  if (app.uploads_device_macs) first_party.push_back(SensitiveData::kDeviceMac);
  if (app.uploads_router_ssid) first_party.push_back(SensitiveData::kRouterSsid);
  if (app.uploads_router_bssid)
    first_party.push_back(SensitiveData::kRouterBssid);
  if (app.uploads_wifi_mac) first_party.push_back(SensitiveData::kWifiMac);
  if (app.uploads_device_list)
    first_party.push_back(SensitiveData::kLocalDeviceList);
  if (app.uses_tplink) {
    first_party.push_back(SensitiveData::kTplinkDeviceId);
    first_party.push_back(SensitiveData::kTplinkOemId);
  }
  if (app.uploads_geolocation_with_ids) {
    first_party.push_back(SensitiveData::kGeolocation);
    first_party.push_back(SensitiveData::kAaid);
  }
  if (!first_party.empty() && !app.first_party_endpoint.empty())
    upload(app.first_party_endpoint, SdkId::kNone, first_party);

  // SDK uploads: each SDK inherits the host app's privileges (§2.1) and
  // takes its documented slice of the harvest.
  for (const SdkId sdk : app.sdks) {
    switch (sdk) {
      case SdkId::kInnoSdk:
        upload(sdk_endpoint(sdk), sdk,
               {SensitiveData::kDeviceMac, SensitiveData::kLocalDeviceList});
        break;
      case SdkId::kAppDynamics:
        upload(sdk_endpoint(sdk), sdk,
               {SensitiveData::kRouterSsid, SensitiveData::kAndroidId,
                SensitiveData::kLocalDeviceList, SensitiveData::kDeviceUuid});
        break;
      case SdkId::kUmlautInsightCore:
        upload(sdk_endpoint(sdk), sdk,
               {SensitiveData::kLocalDeviceList, SensitiveData::kGeolocation});
        break;
      case SdkId::kMyTracker:
        upload(sdk_endpoint(sdk), sdk,
               {SensitiveData::kRouterBssid, SensitiveData::kWifiMac});
        break;
      case SdkId::kAmplitude:
        // Analytics piggy-back: relays device MACs only when the host app
        // itself collects them (first-party harvest feeds the SDK).
        upload(sdk_endpoint(sdk), sdk,
               app.uploads_device_macs
                   ? std::vector<SensitiveData>{SensitiveData::kDeviceMac,
                                                SensitiveData::kAaid}
                   : std::vector<SensitiveData>{SensitiveData::kAaid});
        break;
      case SdkId::kTuyaSdk:
        upload(sdk_endpoint(sdk), sdk,
               {SensitiveData::kDeviceMac, SensitiveData::kDeviceUuid});
        break;
      case SdkId::kNone:
        break;
    }
  }
}

AppRunRecord AppRunner::run(const AppSpec& app, SimTime window) {
  AppRunRecord record;
  record.spec = app;
  Harvest harvest;
  harvest.app = &app;
  harvest.record = &record;

  // The iOS gate (§2.1): without the multicast entitlement AND the local-
  // network consent prompt, the OS refuses every LAN socket — the scans
  // below simply never run (confirmed by the paper's iOS 16.7 PoC).
  if (app.platform == MobilePlatform::kIos &&
      !ios_allows_local_network(app.ios)) {
    access_phone_data(app, harvest);
    build_uploads(app, harvest, record);
    return record;
  }

  if (app.scans_mdns) do_mdns_scan(harvest);
  if (app.scans_ssdp)
    do_ssdp_scan(harvest, /*igd_target=*/std::find(app.sdks.begin(),
                                                   app.sdks.end(),
                                                   SdkId::kUmlautInsightCore) !=
                              app.sdks.end());
  if (app.scans_netbios) do_netbios_sweep(harvest);
  if (app.uses_tplink) do_tplink_discovery(harvest);
  if (app.uses_local_tls) do_local_tls(harvest);

  if (scan_retries_ > 0 && !harvest.resenders.empty()) {
    static telemetry::Counter& app_retries =
        telemetry::Registry::global().counter(
            "roomnet_faults_app_retries_total");
    EventLoop& loop = lab_->pixel().loop();
    for (int attempt = 1; attempt <= scan_retries_; ++attempt) {
      // Re-query at window/8, window/4, then window/2 for every further
      // attempt, so each retry fires (and can be answered) in-window.
      const int shift = std::max(1, 4 - attempt);
      const SimTime at = SimTime::from_us(window.us() >> shift);
      for (const auto& resend : harvest.resenders)
        loop.schedule_in(at, [resend] {
          app_retries.inc();
          resend();
        });
    }
  }

  lab_->run_for(window);
  for (const std::uint16_t port : harvest.opened_ports)
    lab_->pixel().close_udp(port);

  if (app.harvests_arp) do_arp_harvest(harvest);
  access_phone_data(app, harvest);
  build_uploads(app, harvest, record);
  record.devices_discovered = harvest.discovered_devices.size();

  // Record the harvested LAN data as accesses (all side-channel: none of
  // these have a protecting permission).
  for (const auto& mac : harvest.device_macs)
    harvest.note_access(record, SensitiveData::kDeviceMac, mac, "lan harvest",
                        true, app.android_version);
  for (const auto& uuid : harvest.uuids)
    harvest.note_access(record, SensitiveData::kDeviceUuid, uuid, "lan harvest",
                        true, app.android_version);

  // Campaign progress counters (§3.2: 2,335 runs — the longest stage).
  static telemetry::Counter& runs =
      telemetry::Registry::global().counter("roomnet_apps_runs_total");
  static telemetry::Counter& uploads =
      telemetry::Registry::global().counter("roomnet_apps_uploads_total");
  static telemetry::Counter& accesses =
      telemetry::Registry::global().counter("roomnet_apps_accesses_total");
  runs.inc();
  uploads.inc(record.uploads.size());
  accesses.inc(record.accesses.size());
  return record;
}

std::vector<AppRunRecord> AppRunner::run_all(const AppDataset& dataset,
                                             SimTime window) {
  std::vector<AppRunRecord> records;
  records.reserve(dataset.apps.size());
  for (const auto& app : dataset.apps) records.push_back(run(app, window));
  return records;
}

}  // namespace roomnet
