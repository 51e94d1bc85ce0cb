#include "testbed/lab.hpp"

#include <map>

#include "proto/http.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"

namespace roomnet {

namespace {
void strip_identifier_placeholders(std::string& pattern) {
  for (const char* placeholder : {"{MAC}", "{MACPLAIN}", "{MACTAIL}", "{UUID}"}) {
    std::size_t pos;
    while ((pos = pattern.find(placeholder)) != std::string::npos)
      pattern.replace(pos, std::string(placeholder).size(), "dev");
  }
}

std::string_view platform_owner(Platform platform) {
  switch (platform) {
    case Platform::kAlexa: return "Amazon";
    case Platform::kGoogleHome: return "Google";
    case Platform::kHomeKit: return "Apple";
    case Platform::kTpLink: return "TP-Link";
    case Platform::kTuya: return "Tuya";
    case Platform::kSmartThings: return "SmartThings";
    case Platform::kNone: return "";
  }
  return "";
}

/// Coordinator preference: the owner's TLS-capable devices, then any
/// TLS-capable member, then the rest; ties go to the earlier device.
int coordinator_rank(const TestbedDevice& device) {
  if (!device.behavior().tls_server) return 0;
  const bool owner =
      device.spec().vendor == platform_owner(device.spec().platform);
  return owner ? 2 : 1;
}
}  // namespace

void assign_static_ips(const DeviceList& devices) {
  std::uint32_t next_static = 200;
  for (const auto& device : devices) {
    if (device->behavior().use_dhcp) continue;
    device->host().set_static_ip(
        Ipv4Address((kRouterIp.value() & 0xffffff00) | next_static++));
  }
}

void wire_platform_clusters(const DeviceList& devices) {
  std::map<Platform, TestbedDevice*> coordinators;
  for (const auto& device : devices) {
    const Platform platform = device->spec().platform;
    if (platform == Platform::kNone) continue;
    auto [it, inserted] = coordinators.try_emplace(platform, device.get());
    if (!inserted && coordinator_rank(*device) > coordinator_rank(*it->second))
      it->second = device.get();
  }
  for (const auto& device : devices) {
    const Platform platform = device->spec().platform;
    if (platform == Platform::kNone) continue;
    TestbedDevice* coordinator = coordinators.at(platform);
    if (coordinator != device.get()) device->set_cluster_coordinator(coordinator);
  }
}

void schedule_staggered_boot(EventLoop& loop, const DeviceList& devices,
                             Rng& rng, double window_s) {
  for (const auto& device : devices) {
    const double offset = rng.uniform() * window_s;
    loop.schedule_in(SimTime::from_seconds(offset),
                     [d = device.get()] { d->start(); });
  }
}

/// §7 "data exposure minimization / ID randomization" applied fleet-wide.
void Lab::apply_privacy_hardening(DeviceBehavior& behavior) {
  behavior.hostname_policy = HostnamePolicy::kRandomized;
  behavior.mdns_hostname_policy = HostnamePolicy::kRandomized;
  behavior.display_name.clear();
  behavior.upnp_serial_is_mac = false;
  for (auto& service : behavior.mdns_services) {
    strip_identifier_placeholders(service.instance_pattern);
    for (auto& txt : service.txt_patterns) strip_identifier_placeholders(txt);
  }
}

Lab::Lab(LabConfig config)
    : config_(config), rng_(config.seed), net_(loop_) {
  if (config_.record_frames) capture_.attach(net_);
  router_ = std::make_unique<Router>(net_, kRouterMac, kRouterIp);

  const auto& registry = OuiRegistry::builtin();
  std::map<std::string, int> per_vendor_index;
  std::size_t index = 0;
  for (const auto& spec : moniotr_catalog()) {
    const std::uint32_t oui =
        registry.oui_of(spec.vendor).value_or(0x02a0fe);
    const int unit = per_vendor_index[spec.vendor]++;
    const MacAddress mac = MacAddress::from_u64(
        (static_cast<std::uint64_t>(oui) << 24) | (0x100001u + unit));
    DeviceBehavior behavior = behavior_for(spec, index);
    if (config_.privacy_hardening) apply_privacy_hardening(behavior);
    devices_.push_back(std::make_unique<TestbedDevice>(
        net_, spec, std::move(behavior), mac, rng_));
    ++index;
  }
  assign_static_ips(devices_);
  wire_platform_clusters(devices_);

  pixel_ = std::make_unique<Host>(
      net_, MacAddress::from_u64(0x02a0fd000001ull), "pixel-3");
  iphone_ = std::make_unique<Host>(
      net_, MacAddress::from_u64(0x02a0fd000002ull), "iphone-7");
}

TestbedDevice* Lab::find(std::string_view needle) {
  for (auto& device : devices_) {
    const std::string full = device->spec().vendor + " " + device->spec().model;
    if (full.find(needle) != std::string::npos) return device.get();
  }
  return nullptr;
}

void Lab::start_all() {
  schedule_staggered_boot(loop_, devices_, rng_, config_.boot_window_s);
  pixel_->start_dhcp("Pixel-3", "android-dhcp-9", {1, 3, 6, 15, 26, 28, 51});
  iphone_->start_dhcp("iPhone", "", {1, 121, 3, 6, 15, 119, 252});
  schedule_interop();
}

void Lab::schedule_interop() {
  // §4.1: inter-manufacturer communication for platform interoperability —
  // voice-assistant platforms control TP-Link gear over TPLINK-SHP, the Hue
  // hub via its REST API, and TVs via their open HTTP control APIs.
  TestbedDevice* echo = find("Echo Spot");
  TestbedDevice* google = find("Nest Hub");
  TestbedDevice* hue = find("Hue Hub");
  TestbedDevice* roku = find("Roku TV");

  const auto http_control = [this](TestbedDevice* from, TestbedDevice* to,
                                   std::uint16_t port, const std::string& path) {
    if (from == nullptr || to == nullptr) return;
    if (!from->host().has_ip() || !to->host().has_ip()) return;
    auto& conn = from->host().connect_tcp(to->host().ip(), port);
    conn.on_established = [path](TcpConnection& c) {
      HttpRequest req;
      req.target = path;
      c.send(encode_http_request(req));
    };
    conn.on_data = [](TcpConnection& c, BytesView) { c.close(); };
  };
  const auto tplink_control = [this](TestbedDevice* from, TestbedDevice* to) {
    if (from == nullptr || to == nullptr) return;
    if (!from->host().has_ip() || !to->host().has_ip()) return;
    auto& conn = from->host().connect_tcp(to->host().ip(), kTplinkPort);
    conn.on_established = [](TcpConnection& c) {
      c.send(encode_tplink_tcp(tplink_get_sysinfo_request()));
    };
    conn.on_data = [](TcpConnection& c, BytesView) { c.close(); };
  };

  loop_.schedule_periodic(SimTime::from_minutes(8), SimTime::from_minutes(40),
                          [=, this] {
    for (auto& device : devices_) {
      if (device->spec().vendor == "TP-Link")
        tplink_control(echo, device.get());  // Alexa controls Kasa gear
    }
    http_control(echo, hue, 80, "/api/0/lights");        // Alexa -> Hue REST
    http_control(google, hue, 80, "/api/0/lights");      // Google -> Hue REST
    http_control(google, roku, 8060, "/query/device-info");  // Cast -> Roku ECP
  });
}

void Lab::run_for(SimTime duration) {
  loop_.run_until(loop_.now() + duration);
}

void Lab::run_interactions(int count, SimTime spacing) {
  for (int i = 0; i < count; ++i) {
    loop_.schedule_in(SimTime::from_seconds(spacing.seconds() * (i + 1)), [this] {
      auto& device = *devices_[rng_.below(devices_.size())];
      if (device.host().has_ip()) interact_once(device);
    });
  }
  run_for(SimTime::from_seconds(spacing.seconds() * (count + 2)));
}

void Lab::interact_once(TestbedDevice& device) {
  Host& phone = rng_.chance(0.7) ? *pixel_ : *iphone_;
  const DeviceBehavior& behavior = device.behavior();

  if (behavior.ssdp_description && rng_.chance(0.5)) {
    // Companion apps fetch the UPnP description document (whose
    // serialNumber is the MAC on several devices — Table 5).
    auto& conn = phone.connect_tcp(device.host().ip(), 49152);
    conn.on_established = [](TcpConnection& c) {
      HttpRequest req;
      req.target = "/description.xml";
      c.send(encode_http_request(req));
    };
    conn.on_data = [](TcpConnection& c, BytesView) { c.close(); };
    return;
  }
  if (behavior.tplink_server) {
    // Companion-app control over TPLINK-SHP TCP (unauthenticated, §5.1).
    auto& conn = phone.connect_tcp(device.host().ip(), kTplinkPort);
    conn.on_established = [](TcpConnection& c) {
      json::Object relay;
      relay.emplace("set_relay_state", [] {
        json::Object st;
        st.emplace("state", 1);
        return json::Value(std::move(st));
      }());
      json::Object root;
      root.emplace("system", json::Value(std::move(relay)));
      c.send(encode_tplink_tcp(json::Value(std::move(root))));
    };
    conn.on_data = [](TcpConnection& c, BytesView) { c.close(); };
    return;
  }
  if (behavior.tls_server) {
    auto& conn = phone.connect_tcp(device.host().ip(), behavior.tls_server->port);
    const TlsVersion version = behavior.tls_server->version;
    conn.on_established = [this, version](TcpConnection& c) {
      TlsClientHello hello;
      hello.version = version;
      hello.random = rng_.bytes(32);
      hello.cipher_suites = {0x1301, 0xc02f};
      c.send(encode_client_hello(hello));
    };
    conn.on_data = [](TcpConnection& c, BytesView) { c.close(); };
    return;
  }
  if (!behavior.http_servers.empty()) {
    auto& conn =
        phone.connect_tcp(device.host().ip(), behavior.http_servers[0].port);
    conn.on_established = [](TcpConnection& c) {
      HttpRequest req;
      req.target = "/";
      req.headers.add("User-Agent", "CompanionApp/1.0 Android/9");
      c.send(encode_http_request(req));
    };
    conn.on_data = [](TcpConnection& c, BytesView) { c.close(); };
    return;
  }
  // Default: a unicast UDP poke on the device's beacon port (wakes custom
  // protocols) or a ping.
  if (behavior.unknown_beacon_port != 0) {
    phone.send_udp(device.host().ip(), phone.ephemeral_port(),
                   behavior.unknown_beacon_port, rng_.bytes(16));
  } else {
    phone.send_icmp_echo(device.host().ip());
  }
}

}  // namespace roomnet
