// Table 5: example payloads exposing device information — regenerated from
// live testbed traffic (SSDP description with serial=MAC, mDNS Philips Hue
// hostname with MAC tail, the NetBIOS CKAAA... wildcard probe, TPLINK-SHP
// sysinfo with deviceId/hwId/oemId and plaintext geolocation).
#include "bench_util.hpp"
#include "proto/app.hpp"
#include "proto/netbios.hpp"
#include "proto/tplink.hpp"

using namespace roomnet;
using namespace roomnet::bench;

int main() {
  header("Table 5", "example payloads exposing device information");
  Lab lab(LabConfig{.seed = 42, .record_frames = false});
  // The first Philips Hue mDNS response on the local network.
  std::optional<DnsMessage> hue;
  lab.network().add_packet_tap(
      [&hue, filter = LocalFilter{}](SimTime, const PacketView& packet,
                                     BytesView) {
        if (hue || !filter.matches(packet)) return;
        if (!packet.udp || value(packet.udp->dst_port) != 5353) return;
        const DnsView* msg = dns_of(packet);
        if (msg == nullptr || !msg->is_response) return;
        bool is_hue = false;
        for (const DnsRecordView& rec : msg->answers)
          is_hue |= rec.name.to_string().find("_hue") != std::string::npos;
        // The view dies with the delivery: copy.
        if (is_hue) hue = msg->to_message();
      });
  lab.start_all();
  lab.run_idle(SimTime::from_minutes(30));

  // --- SSDP/UPnP description (Amcrest-style, serialNumber = MAC) --------
  TestbedDevice* amcrest = lab.find("Amcrest");
  if (amcrest != nullptr && amcrest->host().has_ip()) {
    Host probe(lab.network(), MacAddress::from_u64(0x02a0fc0000c1ull),
               "probe");
    probe.set_static_ip(Ipv4Address(192, 168, 10, 253));
    std::string xml;
    auto& conn = probe.connect_tcp(amcrest->host().ip(), 49152);
    conn.on_established = [](TcpConnection& c) {
      HttpRequest req;
      req.target = "/description.xml";
      c.send(encode_http_request(req));
    };
    conn.on_data = [&xml](TcpConnection& c, BytesView data) {
      const auto res = decode_http_response(data);
      if (res) xml = string_of(BytesView(res->body));
      c.close();
    };
    lab.run_for(SimTime::from_seconds(5));
    std::printf("\n--- SSDP/UPnP device description (camera) ---\n%s\n",
                xml.c_str());
  }

  // --- mDNS (Philips Hue hostname embedding the MAC tail) ----------------
  if (hue) {
    std::printf("--- mDNS response (Philips Hue) ---\n");
    for (const auto& rec : hue->answers) {
      std::printf("  %s", rec.name.to_string().c_str());
      if (const auto ptr = rec.ptr())
        std::printf("  PTR %s", ptr->to_string().c_str());
      for (const auto& txt : rec.txt()) std::printf("  TXT %s", txt.c_str());
      std::printf("\n");
    }
  }

  // --- NetBIOS wildcard probe (the innosdk scan payload) -----------------
  NetbiosPacket probe;
  probe.op = NetbiosOp::kNodeStatusQuery;
  probe.name = "*";
  const Bytes netbios = encode_netbios(probe);
  std::printf("\n--- NetBIOS node-status wildcard probe (hex + ascii) ---\n");
  for (std::size_t i = 0; i < netbios.size(); i += 16) {
    for (std::size_t j = i; j < std::min(i + 16, netbios.size()); ++j)
      std::printf("%02x ", netbios[j]);
    std::printf("  ");
    for (std::size_t j = i; j < std::min(i + 16, netbios.size()); ++j)
      std::printf("%c", std::isprint(netbios[j]) ? netbios[j] : '.');
    std::printf("\n");
  }
  std::printf("(note the \"CKAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA\" encoded '*')\n");

  // --- TPLINK-SHP sysinfo (deviceId/hwId/oemId + geolocation) -------------
  TestbedDevice* plug = lab.find("Kasa Plug");
  if (plug != nullptr && plug->host().has_ip()) {
    Host phone(lab.network(), MacAddress::from_u64(0x02a0fc0000c2ull),
               "phone2");
    phone.set_static_ip(Ipv4Address(192, 168, 10, 254));
    std::string sysinfo;
    phone.open_udp(40000, [&sysinfo](Host&, const PacketView&,
                                     const UdpDatagram& u) {
      const auto body = decode_tplink_udp(u.payload);
      if (body) sysinfo = body->dump();
    });
    phone.send_udp(plug->host().ip(), 40000, kTplinkPort,
                   encode_tplink_udp(tplink_get_sysinfo_request()));
    lab.run_for(SimTime::from_seconds(3));
    std::printf("\n--- TPLINK-SHP get_sysinfo response (decrypted) ---\n%s\n",
                sysinfo.c_str());
    std::printf("(XOR-autokey 'encrypted' on the wire; key 171 — decryptable "
                "by anyone, §5.1)\n");
  }
  return 0;
}
