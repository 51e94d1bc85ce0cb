#include "sim/ssdp.hpp"

#include "proto/app.hpp"
#include "proto/http.hpp"

namespace roomnet {

SsdpEndpoint::SsdpEndpoint(Host& host) : host_(&host) {
  host_->open_udp(
      kSsdpPort,
      [this](Host&, const PacketView& packet, const UdpDatagram& udp) {
        handle(packet, udp);
      });
  host_->join_multicast_group(kSsdpGroupV4);
}

void SsdpEndpoint::set_description(UpnpDeviceDescription description,
                                   std::uint16_t http_port) {
  description_ = std::move(description);
  http_port_ = http_port;
  host_->listen_tcp(http_port_, [this](Host&, TcpConnection& conn) {
    conn.on_data = [this](TcpConnection& c, BytesView data) {
      const auto req = decode_http_request(data);
      if (!req) return;
      HttpResponse res;
      if (req->target == "/description.xml" && description_) {
        res.headers.add("Content-Type", "text/xml");
        res.headers.add("Server", server_string);
        res.body = bytes_of(description_->to_xml());
      } else {
        res.status = 404;
        res.reason = "Not Found";
      }
      c.send(encode_http_response(res));
      c.close();
    };
  });
}

void SsdpEndpoint::send(SsdpKind kind, std::string_view nt, Ipv4Address to,
                        std::uint16_t sport, std::uint16_t dport) {
  out_.kind = kind;
  out_.search_target.assign(nt);
  out_.server.assign(server_string);
  out_.nts.assign(kind == SsdpKind::kNotify ? "ssdp:alive" : "");
  out_.usn.clear();
  out_.location.clear();
  if (description_) {
    out_.usn.append(description_->udn).append("::").append(nt);
    out_.location.append("http://")
        .append(host_->ip().to_string())
        .append(":")
        .append(std::to_string(http_port_))
        .append("/description.xml");
  }
  ByteWriter w(std::move(wire_));
  append_ssdp(out_, w);
  wire_ = w.take();
  host_->send_udp(to, sport, dport, wire_);
}

void SsdpEndpoint::msearch(const std::string& search_target, int mx) {
  SsdpMessage msg;
  msg.kind = SsdpKind::kMSearch;
  msg.search_target = search_target;
  msg.mx = mx;
  msg.server = server_string;
  // Unicast 200 OK responses come back to the search's source port, so the
  // searching socket must listen there too. They arrive within milliseconds,
  // long before a periodic searcher searches again, so the previous
  // search's socket for this target is done with.
  std::uint16_t& sport = search_ports_[search_target];
  if (sport != 0) host_->close_udp(sport);
  sport = host_->ephemeral_port();
  host_->open_udp(
      sport,
      [this](Host&, const PacketView& packet, const UdpDatagram& udp) {
        handle(packet, udp);
      });
  host_->send_udp(kSsdpGroupV4, sport, kSsdpPort, encode_ssdp(msg));
}

void SsdpEndpoint::notify_alive() {
  for (const auto& nt : notification_types)
    send(SsdpKind::kNotify, nt, kSsdpGroupV4, host_->ephemeral_port(),
         kSsdpPort);
}

void SsdpEndpoint::handle(const PacketView& packet, const UdpDatagram& udp) {
  const SsdpView* msg = ssdp_of(packet);
  if (msg == nullptr) return;
  if (on_message) on_message(packet, *msg);
  if (msg->kind != SsdpKind::kMSearch || !respond_to_msearch || !packet.ipv4)
    return;

  const std::string_view st = msg->search_target;
  bool match = st == "ssdp:all";
  for (const auto& nt : notification_types) match = match || st == nt;
  if (!match) return;

  // Unicast back to the searcher's source port.
  send(SsdpKind::kResponse,
       st == "ssdp:all" && !notification_types.empty()
           ? std::string_view(notification_types.front())
           : st,
       packet.ipv4->src, kSsdpPort, value(udp.src_port));
}

}  // namespace roomnet
