#include "honeypot/honeypot.hpp"

#include "proto/http.hpp"

namespace roomnet {

namespace {
std::string persona_label(HoneypotPersona persona) {
  switch (persona) {
    case HoneypotPersona::kMediaRenderer: return "honeypot-renderer";
    case HoneypotPersona::kZeroconfSpeaker: return "honeypot-speaker";
    case HoneypotPersona::kIpCamera: return "honeypot-camera";
    case HoneypotPersona::kTelnetShell: return "honeypot-telnet";
  }
  return "honeypot";
}
}  // namespace

Honeypot::Honeypot(Switch& net, MacAddress mac, HoneypotPersona persona,
                   Rng& rng)
    : host_(net, mac, persona_label(persona)),
      persona_(persona),
      rng_(rng.fork(persona_label(persona) + mac.to_string())) {}

std::string Honeypot::make_token(const std::string& field) {
  const std::string value = "HNY" + to_hex(rng_.bytes(6));
  tokens_.push_back({field, value});
  return value;
}

void Honeypot::record(MacAddress from, ProtocolLabel protocol,
                      std::string detail) {
  interactions_.push_back(
      {host_.loop().now(), from, protocol, std::move(detail)});
}

std::vector<HoneypotInteraction> Honeypot::interactions_from(
    MacAddress mac) const {
  std::vector<HoneypotInteraction> out;
  for (const auto& i : interactions_)
    if (i.from == mac) out.push_back(i);
  return out;
}

void Honeypot::start() {
  host_.on_ip_acquired = [this](Host&) {
    switch (persona_) {
      case HoneypotPersona::kMediaRenderer: setup_media_renderer(); break;
      case HoneypotPersona::kZeroconfSpeaker: setup_zeroconf_speaker(); break;
      case HoneypotPersona::kIpCamera: setup_ip_camera(); break;
      case HoneypotPersona::kTelnetShell: setup_telnet_shell(); break;
    }
  };
  host_.start_dhcp(persona_label(persona_) + "-" + make_token("hostname"), "",
                   {1, 3, 6, 12});
}

void Honeypot::setup_media_renderer() {
  ssdp_.emplace(host_);
  ssdp_->respond_to_msearch = true;
  UpnpDeviceDescription desc;
  desc.device_type = "urn:schemas-upnp-org:device:MediaRenderer:1";
  desc.friendly_name = "Living Room TV " + make_token("friendlyName");
  desc.manufacturer = "HoneyCo";
  desc.model_name = "HC-TV1";
  desc.serial_number = make_token("serialNumber");
  desc.udn = "uuid:" + Uuid::random(rng_).to_string();
  tokens_.push_back({"udn", desc.udn});
  ssdp_->set_description(std::move(desc));
  ssdp_->notification_types = {"upnp:rootdevice",
                               "urn:dial-multiscreen-org:service:dial:1"};
  ssdp_->on_message = [this](const PacketView& packet, const SsdpView& msg) {
    if (msg.kind == SsdpKind::kMSearch)
      record(packet.eth.src, ProtocolLabel::kSsdp,
             "M-SEARCH " + std::string(msg.search_target));
  };
  // Track description fetches via a wrapper HTTP endpoint on a second port.
  host_.listen_tcp(49160, [this](Host&, TcpConnection& conn) {
    conn.on_data = [this](TcpConnection& c, BytesView data) {
      const auto req = decode_http_request(data);
      if (req)
        record(MacAddress{}, ProtocolLabel::kHttp, "GET " + req->target);
      c.close();
    };
  });
}

void Honeypot::setup_zeroconf_speaker() {
  mdns_.emplace(host_);
  mdns_->answer_multicast = true;
  mdns_->answer_unicast = true;
  mdns_->set_hostname(persona_label(persona_) + ".local");
  MdnsService service;
  service.instance = "Bedroom Speaker " + make_token("instance");
  service.service_type = "_spotify-connect._tcp.local";
  service.port = 4070;
  service.txt = {"deviceid=" + make_token("txt.deviceid"),
                 "cpath=/zc/" + make_token("txt.cpath")};
  mdns_->add_service(std::move(service));
  mdns_->on_message = [this](const PacketView& packet, const DnsView& msg) {
    if (!msg.is_response && !msg.questions.empty())
      record(packet.eth.src, ProtocolLabel::kMdns,
             "query " + msg.questions.front().name.to_string());
  };
  mdns_->announce();
}

void Honeypot::setup_ip_camera() {
  const std::string banner = "HoneyCam/" + make_token("banner");
  host_.listen_tcp(80, [this, banner](Host&, TcpConnection& conn) {
    conn.on_data = [this, banner](TcpConnection& c, BytesView data) {
      const auto req = decode_http_request(data);
      if (!req) {
        c.close();
        return;
      }
      record(MacAddress{}, ProtocolLabel::kHttp, "GET " + req->target);
      HttpResponse res;
      res.headers.add("Server", banner);
      res.body = bytes_of("<html>camera " + tokens_.back().value + "</html>");
      c.send(encode_http_response(res));
      c.close();
    };
  });
}

void Honeypot::setup_telnet_shell() {
  const std::string banner = "busybox-" + make_token("banner") + " login: ";
  host_.listen_tcp(23, [this, banner](Host&, TcpConnection& conn) {
    conn.on_established = [this, banner](TcpConnection& c) {
      record(MacAddress{}, ProtocolLabel::kTelnet,
             "connect from " + c.remote_ip().to_string());
      c.send(bytes_of(banner));
    };
    conn.on_data = [this](TcpConnection& c, BytesView data) {
      record(MacAddress{}, ProtocolLabel::kTelnet,
             "input " + to_hex(data.first(std::min<std::size_t>(8, data.size()))));
      c.send(bytes_of("Password: "));
    };
  });
}

void PropagationTracker::register_tokens(const Honeypot& honeypot) {
  for (const auto& token : honeypot.tokens()) tokens_.push_back(token);
}

std::vector<PropagationTracker::Match> PropagationTracker::scan(
    BytesView payload, const std::string& context) const {
  std::vector<Match> matches;
  const std::string haystack = string_of(payload);
  for (const auto& token : tokens_) {
    if (haystack.find(token.value) != std::string::npos)
      matches.push_back({token, context});
  }
  return matches;
}

}  // namespace roomnet
