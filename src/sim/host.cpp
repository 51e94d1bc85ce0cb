#include "sim/host.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "proto/app.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {

namespace {
/// NS/NA with a target and a link-layer option: 4 + 4 + 16 + 8 bytes.
constexpr std::size_t kNdpMessageSize = 32;
}  // namespace

MacAddress multicast_mac_v4(Ipv4Address group) {
  std::array<std::uint8_t, 6> o{0x01, 0x00, 0x5e, 0, 0, 0};
  const std::uint32_t v = group.value();
  o[3] = static_cast<std::uint8_t>((v >> 16) & 0x7f);
  o[4] = static_cast<std::uint8_t>(v >> 8);
  o[5] = static_cast<std::uint8_t>(v);
  return MacAddress(o);
}

MacAddress multicast_mac_v6(const Ipv6Address& group) {
  std::array<std::uint8_t, 6> o{0x33, 0x33, 0, 0, 0, 0};
  const auto& b = group.bytes();
  o[2] = b[12];
  o[3] = b[13];
  o[4] = b[14];
  o[5] = b[15];
  return MacAddress(o);
}

// ----------------------------------------------------------- TcpConnection

void TcpConnection::send(BytesView data) {
  if (state_ != State::kEstablished || host_ == nullptr) return;
  host_->tcp_emit(*this, TcpFlags{.psh = true, .ack = true}, data);
}

void TcpConnection::close() {
  if (state_ == State::kClosed || host_ == nullptr) return;
  state_ = State::kClosed;
  host_->tcp_emit(*this, TcpFlags{.fin = true, .ack = true}, {});
  if (on_close) on_close(*this);
}

// -------------------------------------------------------------------- Host

Host::Host(Switch& net, MacAddress mac, std::string label)
    : net_(&net),
      mac_(mac),
      link_local_(Ipv6Address::link_local_from_mac(mac)),
      label_(std::move(label)) {
  net_->attach(*this);
  // Stagger per-host sequence state so flows do not look identical.
  next_ephemeral_ = static_cast<std::uint16_t>(49152 + (mac.to_u64() % 4096));
  next_iss_ = static_cast<std::uint32_t>(mac.to_u64() * 2654435761u);
}

Host::~Host() { net_->detach(*this); }

void Host::send_frame(Bytes frame) { net_->transmit(std::move(frame), this); }

// -- frame builder -------------------------------------------------------

ByteWriter Host::begin_frame(MacAddress dst, std::uint16_t ethertype,
                             std::size_t payload_len) {
  ByteWriter w(net_->frame_buffer());
  w.reserve(14 + payload_len);
  append_ethernet_header(
      w, EthernetFrame{.dst = dst, .src = mac_, .ethertype = ethertype});
  return w;
}

ByteWriter Host::begin_ipv4(Ipv4Address dst, IpProto protocol,
                            std::size_t payload_len, std::uint8_t ttl) {
  Ipv4Packet ip;
  ip.src = ip_;
  ip.dst = dst;
  ip.protocol = static_cast<std::uint8_t>(protocol);
  ip.ttl = ttl;
  ByteWriter w = begin_frame(
      MacAddress{}, static_cast<std::uint16_t>(EtherType::kIpv4), 20 + payload_len);
  append_ipv4_header(w, ip, payload_len);
  return w;
}

ByteWriter Host::begin_ipv6(MacAddress eth_dst, const Ipv6Address& dst,
                            IpProto next_header, std::size_t payload_len) {
  Ipv6Packet ip;
  ip.src = link_local_;
  ip.dst = dst;
  ip.next_header = static_cast<std::uint8_t>(next_header);
  ByteWriter w = begin_frame(
      eth_dst, static_cast<std::uint16_t>(EtherType::kIpv6), 40 + payload_len);
  append_ipv6_header(w, ip, payload_len);
  return w;
}

std::uint16_t Host::ephemeral_port() {
  if (next_ephemeral_ < 49152) next_ephemeral_ = 49152;
  return next_ephemeral_++;
}

// -- ARP ---------------------------------------------------------------

void Host::send_arp(const ArpPacket& arp, MacAddress eth_dst) {
  ByteWriter w =
      begin_frame(eth_dst, static_cast<std::uint16_t>(EtherType::kArp), 28);
  append_arp(w, arp);
  send_frame(w.take());
}

void Host::arp_request(Ipv4Address target) {
  ArpPacket arp;
  arp.op = ArpOp::kRequest;
  arp.sender_mac = mac_;
  arp.sender_ip = ip_;
  arp.target_ip = target;
  send_arp(arp, MacAddress::kBroadcast);
}

void Host::arp_scan_subnet() {
  const std::uint32_t base = ip_.value() & 0xffffff00;
  for (std::uint32_t h = 1; h < 255; ++h) {
    const Ipv4Address target(base | h);
    if (target == ip_) continue;
    // Spread the sweep out over ~2.5s like a real scanner.
    loop().schedule_in(SimTime::from_ms(static_cast<std::int64_t>(h) * 10),
                       [this, target] { arp_request(target); });
  }
}

std::optional<MacAddress> Host::arp_lookup(Ipv4Address ip) const {
  const auto it = arp_cache_.find(ip);
  if (it == arp_cache_.end()) return std::nullopt;
  return it->second;
}

void Host::handle_arp(const ArpPacket& arp) {
  // Learn the sender mapping opportunistically.
  if (arp.sender_ip.value() != 0) arp_cache_[arp.sender_ip] = arp.sender_mac;

  if (arp.op == ArpOp::kRequest && arp.target_ip == ip_ && has_ip()) {
    // A request that already knows our MAC is a targeted (unicast-style)
    // probe; everyone answers those. Broadcast sweeps are answered only if
    // the policy flag says so (§5.1: 58% answer Echo's broadcast scans).
    const bool targeted = arp.target_mac == mac_;
    if (!targeted && !responds_to_broadcast_arp) return;
    ArpPacket reply;
    reply.op = ArpOp::kReply;
    reply.sender_mac = mac_;
    reply.sender_ip = ip_;
    reply.target_mac = arp.sender_mac;
    reply.target_ip = arp.sender_ip;
    send_arp(reply, arp.sender_mac);
  }
  if (arp.op == ArpOp::kReply) {
    // Flush sends queued on this resolution.
    const auto it = arp_pending_.find(arp.sender_ip);
    if (it != arp_pending_.end()) {
      auto pending = std::move(it->second);
      arp_pending_.erase(it);
      for (Bytes& frame : pending) deliver_ipv4(std::move(frame), arp.sender_ip);
    }
  }
}

// -- send paths ----------------------------------------------------------

void Host::deliver_ipv4(Bytes frame, Ipv4Address dst) {
  MacAddress eth_dst;
  if (dst.is_broadcast() || dst.is_subnet_broadcast24()) {
    eth_dst = MacAddress::kBroadcast;
  } else if (dst.is_multicast()) {
    eth_dst = multicast_mac_v4(dst);
  } else {
    const auto mac = arp_lookup(dst);
    if (!mac) {
      arp_pending_[dst].push_back(std::move(frame));
      arp_request(dst);
      return;
    }
    eth_dst = *mac;
  }
  std::memcpy(frame.data(), eth_dst.octets().data(), eth_dst.octets().size());
  send_frame(std::move(frame));
}

void Host::send_udp(Ipv4Address dst, std::uint16_t sport, std::uint16_t dport,
                    BytesView payload) {
  ByteWriter w = begin_ipv4(dst, IpProto::kUdp, 8 + payload.size());
  append_udp_v4(w, UdpDatagram{port(sport), port(dport), payload}, ip_, dst);
  deliver_ipv4(w.take(), dst);
}

void Host::send_udp_v6(const Ipv6Address& dst, std::uint16_t sport,
                       std::uint16_t dport, BytesView payload) {
  if (!ipv6_enabled_) return;
  // No NDP table: unicast floods.
  const MacAddress eth_dst =
      dst.is_multicast() ? multicast_mac_v6(dst) : MacAddress::kBroadcast;
  ByteWriter w = begin_ipv6(eth_dst, dst, IpProto::kUdp, 8 + payload.size());
  append_udp_v6(w, UdpDatagram{port(sport), port(dport), payload}, link_local_,
                dst);
  send_frame(w.take());
}

void Host::send_icmp_echo(Ipv4Address dst) {
  // Identifier (the MAC's low 16 bits), then sequence number 1.
  const auto id = static_cast<std::uint16_t>(mac_.to_u64());
  const std::array<std::uint8_t, 4> echo{static_cast<std::uint8_t>(id >> 8),
                                         static_cast<std::uint8_t>(id), 0, 1};
  ByteWriter w = begin_ipv4(dst, IpProto::kIcmp, 4 + echo.size());
  append_icmp(w, IcmpMessage{.type = 8, .body = echo});
  deliver_ipv4(w.take(), dst);
}

void Host::join_multicast_group(Ipv4Address group) {
  ByteWriter w = begin_ipv4(group, IpProto::kIgmp, 8, /*ttl=*/1);
  append_igmp(w, IgmpMessage{.type = 0x16, .group = group});  // v2 report
  deliver_ipv4(w.take(), group);
}

void Host::send_eapol_key(Rng& rng) {
  const Bytes key = rng.bytes(95);  // typical WPA2 key frame size
  ByteWriter w = begin_frame(MacAddress::kBroadcast,
                             static_cast<std::uint16_t>(EtherType::kEapol),
                             4 + key.size());
  append_eapol(w, EapolFrame{.type = EapolType::kKey, .body = key});
  send_frame(w.take());
}

void Host::send_llc_xid_broadcast() {
  static constexpr std::uint8_t kXidInfo[] = {0x81, 0x01, 0x00};
  const LlcXidFrame llc{.dsap = 0, .ssap = 1, .is_xid = true, .info = kXidInfo};
  // LLC framing: the EtherType field carries the payload length.
  const std::size_t length = 3 + llc.info.size();
  ByteWriter w = begin_frame(MacAddress::kBroadcast,
                             static_cast<std::uint16_t>(length), length);
  append_llc_xid(w, llc);
  send_frame(w.take());
}

void Host::send_neighbor_solicitation(const Ipv6Address& target) {
  if (!ipv6_enabled_) return;
  Icmpv6Message msg;
  msg.type = Icmpv6Type::kNeighborSolicitation;
  msg.target = target;
  msg.link_layer_option = mac_;  // the MAC exposure §5.1 flags
  const Ipv6Address dst = Ipv6Address::solicited_node(target);
  ByteWriter w =
      begin_ipv6(multicast_mac_v6(dst), dst, IpProto::kIcmpv6, kNdpMessageSize);
  append_icmpv6(w, msg, link_local_, dst);
  send_frame(w.take());
}

// -- UDP handlers ---------------------------------------------------------

void Host::open_udp(std::uint16_t port, UdpHandler handler) {
  udp_handlers_[port] = std::move(handler);
}

std::vector<std::uint16_t> Host::open_udp_ports() const {
  std::vector<std::uint16_t> out;
  out.reserve(udp_handlers_.size());
  for (const auto& [p, _] : udp_handlers_) out.push_back(p);
  return out;
}

// -- TCP --------------------------------------------------------------------

void Host::listen_tcp(std::uint16_t port, AcceptHandler on_accept) {
  tcp_listeners_[port] = std::move(on_accept);
}

std::vector<std::uint16_t> Host::open_tcp_ports() const {
  std::vector<std::uint16_t> out;
  out.reserve(tcp_listeners_.size());
  for (const auto& [p, _] : tcp_listeners_) out.push_back(p);
  return out;
}

Host::TcpKey Host::tcp_key(Ipv4Address remote, Port remote_port,
                           Port local_port) {
  return (static_cast<std::uint64_t>(remote.value()) << 32) |
         (static_cast<std::uint64_t>(value(remote_port)) << 16) |
         value(local_port);
}

TcpConnection& Host::connect_tcp(Ipv4Address dst, std::uint16_t dport) {
  auto conn = std::make_unique<TcpConnection>();
  conn->host_ = this;
  conn->remote_ip_ = dst;
  conn->remote_port_ = port(dport);
  conn->local_port_ = port(ephemeral_port());
  conn->snd_next_ = next_iss_ += 64000;
  conn->state_ = TcpConnection::State::kSynSent;
  TcpConnection& ref = *conn;
  connections_[tcp_key(dst, ref.remote_port_, ref.local_port_)] = std::move(conn);
  send_raw_tcp(dst, value(ref.local_port_), dport, TcpFlags{.syn = true},
               ref.snd_next_, 0);
  ref.snd_next_ += 1;  // SYN consumes a sequence number
  return ref;
}

void Host::send_raw_tcp(Ipv4Address dst, std::uint16_t sport,
                        std::uint16_t dport, TcpFlags flags, std::uint32_t seq,
                        std::uint32_t ack) {
  const TcpSegment seg{.src_port = port(sport),
                       .dst_port = port(dport),
                       .seq = seq,
                       .ack = ack,
                       .flags = flags};
  ByteWriter w = begin_ipv4(dst, IpProto::kTcp, 20);
  append_tcp_v4(w, seg, ip_, dst);
  deliver_ipv4(w.take(), dst);
}

void Host::send_raw_ip(Ipv4Address dst, std::uint8_t protocol,
                       BytesView payload) {
  ByteWriter w = begin_ipv4(dst, static_cast<IpProto>(protocol), payload.size());
  w.raw(payload);
  deliver_ipv4(w.take(), dst);
}

void Host::tcp_emit(TcpConnection& conn, TcpFlags flags, BytesView payload) {
  const TcpSegment seg{.src_port = conn.local_port_,
                       .dst_port = conn.remote_port_,
                       .seq = conn.snd_next_,
                       .ack = conn.rcv_next_,
                       .flags = flags,
                       .payload = payload};
  conn.snd_next_ += static_cast<std::uint32_t>(payload.size());
  if (flags.syn || flags.fin) conn.snd_next_ += 1;
  ByteWriter w = begin_ipv4(conn.remote_ip_, IpProto::kTcp, 20 + payload.size());
  append_tcp_v4(w, seg, ip_, conn.remote_ip_);
  deliver_ipv4(w.take(), conn.remote_ip_);
}

// -- DHCP client ------------------------------------------------------------

void Host::start_dhcp(std::string hostname, std::string vendor_class,
                      std::vector<std::uint8_t> param_request_list) {
  dhcp_hostname_ = std::move(hostname);
  dhcp_vendor_class_ = std::move(vendor_class);
  dhcp_params_ = std::move(param_request_list);
  dhcp_xid_ = static_cast<std::uint32_t>(mac_.to_u64() ^ 0x5a5a5a5a);
  open_udp(kDhcpClientPort,
           [this](Host&, const PacketView& packet, const UdpDatagram&) {
             const DhcpMessage* reply = dhcp_of(packet);
             if (reply != nullptr && !reply->is_request)
               handle_dhcp_reply(*reply);
           });

  send_dhcp_discover();
  schedule_dhcp_retry(1);
}

void Host::send_dhcp_discover() {
  DhcpMessage discover;
  discover.is_request = true;
  discover.xid = dhcp_xid_;
  discover.client_mac = mac_;
  discover.set_message_type(DhcpMessageType::kDiscover);
  if (!dhcp_hostname_.empty()) discover.set_hostname(dhcp_hostname_);
  if (!dhcp_vendor_class_.empty()) discover.set_vendor_class(dhcp_vendor_class_);
  if (!dhcp_params_.empty()) discover.set_parameter_request_list(dhcp_params_);
  send_udp(Ipv4Address(255, 255, 255, 255), kDhcpClientPort, kDhcpServerPort,
           encode_dhcp(discover));
}

void Host::schedule_dhcp_retry(int attempt) {
  if (attempt > dhcp_max_retries) return;
  // Exponential backoff: 1x, 2x, 4x, ... the base interval. A lost OFFER or
  // ACK also lands here — the lease never completed, so the whole exchange
  // restarts from DISCOVER (the server's per-MAC lease is stable).
  const double delay =
      dhcp_retry_base_s * static_cast<double>(1ull << (attempt - 1));
  loop().schedule_in(SimTime::from_seconds(delay), [this, attempt] {
    if (has_ip()) return;
    telemetry::Registry::global()
        .counter("roomnet_faults_dhcp_retries_total")
        .inc();
    send_dhcp_discover();
    schedule_dhcp_retry(attempt + 1);
  });
}

void Host::handle_dhcp_reply(const DhcpMessage& msg) {
  if (msg.xid != dhcp_xid_ || msg.client_mac != mac_) return;
  const auto type = msg.message_type();
  if (type == DhcpMessageType::kOffer) {
    DhcpMessage request;
    request.is_request = true;
    request.xid = dhcp_xid_;
    request.client_mac = mac_;
    request.set_message_type(DhcpMessageType::kRequest);
    request.add_ip_option(DhcpOption::kRequestedIp, msg.yiaddr);
    if (!dhcp_hostname_.empty()) request.set_hostname(dhcp_hostname_);
    if (!dhcp_vendor_class_.empty()) request.set_vendor_class(dhcp_vendor_class_);
    if (!dhcp_params_.empty()) request.set_parameter_request_list(dhcp_params_);
    send_udp(Ipv4Address(255, 255, 255, 255), kDhcpClientPort, kDhcpServerPort,
             encode_dhcp(request));
  } else if (type == DhcpMessageType::kAck) {
    ip_ = msg.yiaddr;
    if (on_ip_acquired) on_ip_acquired(*this);
  }
}

// -- receive ------------------------------------------------------------------

void Host::receive(const PacketView& packet, BytesView raw) {
  (void)raw;
  if (packet.arp) handle_arp(*packet.arp);
  if (packet.ipv4) handle_ipv4(packet);
  if (packet.ipv6) handle_ipv6(packet);
  if (packet_monitor) packet_monitor(*this, packet);
}

void Host::handle_ipv4(const PacketView& packet) {
  const Ipv4Packet& ip = *packet.ipv4;
  const bool for_me = ip.dst == ip_ || ip.dst.is_broadcast() ||
                      ip.dst.is_subnet_broadcast24() || ip.dst.is_multicast();
  if (!for_me) return;

  if (packet.udp) {
    handle_udp(packet);
  } else if (packet.tcp && ip.dst == ip_) {
    handle_tcp(packet);
  } else if (packet.icmp && ip.dst == ip_) {
    if (packet.icmp->type == 8 && responds_to_ping) {
      // The echo body borrows the delivery buffer, alive for this call.
      const BytesView body = packet.icmp->body;
      ByteWriter w = begin_ipv4(ip.src, IpProto::kIcmp, 4 + body.size());
      append_icmp(w, IcmpMessage{.type = 0, .body = body});
      deliver_ipv4(w.take(), ip.src);
    }
  } else if (!packet.udp && !packet.tcp && !packet.icmp && !packet.igmp &&
             ip.dst == ip_) {
    // Unknown IP protocol probe: answer with ICMP protocol-unreachable
    // unless the protocol is in our supported list (IP protocol scan).
    // Stealthy stacks (the ones dropping SYNs to closed ports) drop these
    // too — §4.2: only 58 devices answered IP-protocol scans.
    if (!rst_on_closed_tcp) return;
    const bool supported =
        std::find(extra_ip_protocols.begin(), extra_ip_protocols.end(),
                  ip.protocol) != extra_ip_protocols.end();
    IcmpMessage reply;
    reply.type = supported ? 0 : 3;  // echo-reply-ish marker vs unreachable
    reply.code = supported ? 0 : 2;  // protocol unreachable
    ByteWriter w = begin_ipv4(ip.src, IpProto::kIcmp, 4);
    append_icmp(w, reply);
    deliver_ipv4(w.take(), ip.src);
  }
}

void Host::handle_ipv6(const PacketView& packet) {
  if (!ipv6_enabled_) return;
  if (packet.icmpv6 &&
      packet.icmpv6->type == Icmpv6Type::kNeighborSolicitation &&
      packet.icmpv6->target == link_local_) {
    Icmpv6Message adv;
    adv.type = Icmpv6Type::kNeighborAdvertisement;
    adv.target = link_local_;
    adv.link_layer_option = mac_;
    const Ipv6Address dst = packet.ipv6->src;
    ByteWriter w =
        begin_ipv6(packet.eth.src, dst, IpProto::kIcmpv6, kNdpMessageSize);
    append_icmpv6(w, adv, link_local_, dst);
    send_frame(w.take());
  }
  if (packet.udp) handle_udp(packet);
}

void Host::handle_udp(const PacketView& packet) {
  const UdpDatagram& udp = *packet.udp;
  const std::uint16_t dport = value(udp.dst_port);
  const auto it = udp_handlers_.find(dport);
  if (it != udp_handlers_.end()) it->second(*this, packet, udp);
  if (any_udp_) any_udp_(*this, packet, udp);

  // Closed unicast UDP port on a chatty stack: ICMP port-unreachable with
  // the offending datagram's headers embedded (how nmap separates "closed"
  // from "open|filtered").
  if (it == udp_handlers_.end() && !any_udp_ && rst_on_closed_tcp &&
      packet.ipv4 && packet.ipv4->dst == ip_) {
    // Body: the original IP header (20, rebuilt from its fields) + the
    // first 8 bytes of the datagram.
    const Ipv4Packet& original = *packet.ipv4;
    ByteWriter quote(std::move(quote_));
    append_ipv4_header(quote,
                       Ipv4Packet{.src = original.src,
                                  .dst = original.dst,
                                  .protocol = original.protocol},
                       original.payload.size());
    quote.raw(original.payload.first(
        std::min<std::size_t>(original.payload.size(), 8)));
    quote_ = quote.take();
    ByteWriter w =
        begin_ipv4(original.src, IpProto::kIcmp, 4 + quote_.size());
    append_icmp(w, IcmpMessage{.type = 3, .code = 3, .body = quote_});  // port unreachable
    deliver_ipv4(w.take(), original.src);
  }
}

void Host::handle_tcp(const PacketView& packet) {
  const TcpSegment& seg = *packet.tcp;
  const Ipv4Address remote = packet.ipv4->src;
  const TcpKey key = tcp_key(remote, seg.src_port, seg.dst_port);
  const auto it = connections_.find(key);

  if (it == connections_.end()) {
    if (seg.flags.syn && !seg.flags.ack) {
      const auto listener = tcp_listeners_.find(value(seg.dst_port));
      if (listener == tcp_listeners_.end()) {
        if (rst_on_closed_tcp) {
          send_raw_tcp(remote, value(seg.dst_port), value(seg.src_port),
                       TcpFlags{.rst = true, .ack = true}, 0, seg.seq + 1);
        }
        return;
      }
      // Passive open: create the server-side connection, send SYN-ACK.
      auto conn = std::make_unique<TcpConnection>();
      conn->host_ = this;
      conn->remote_ip_ = remote;
      conn->remote_port_ = seg.src_port;
      conn->local_port_ = seg.dst_port;
      conn->rcv_next_ = seg.seq + 1;
      conn->snd_next_ = next_iss_ += 64000;
      conn->state_ = TcpConnection::State::kSynReceived;
      TcpConnection& ref = *conn;
      connections_[key] = std::move(conn);
      listener->second(*this, ref);  // app installs callbacks now
      tcp_emit(ref, TcpFlags{.syn = true, .ack = true}, {});
    } else if (!seg.flags.rst && rst_on_closed_tcp) {
      // Stray non-SYN segment to a connectionless tuple.
      send_raw_tcp(remote, value(seg.dst_port), value(seg.src_port),
                   TcpFlags{.rst = true}, seg.ack, 0);
    }
    return;
  }

  TcpConnection& conn = *it->second;
  if (seg.flags.rst) {
    const bool was_connecting = conn.state_ == TcpConnection::State::kSynSent;
    conn.state_ = TcpConnection::State::kClosed;
    if (was_connecting && conn.on_refused) conn.on_refused();
    if (conn.on_close) conn.on_close(conn);
    connections_.erase(it);
    return;
  }

  switch (conn.state_) {
    case TcpConnection::State::kSynSent:
      if (seg.flags.syn && seg.flags.ack) {
        conn.rcv_next_ = seg.seq + 1;
        conn.state_ = TcpConnection::State::kEstablished;
        tcp_emit(conn, TcpFlags{.ack = true}, {});
        if (conn.on_established) conn.on_established(conn);
      }
      break;
    case TcpConnection::State::kSynReceived:
      if (seg.flags.ack && !seg.flags.syn) {
        conn.state_ = TcpConnection::State::kEstablished;
        if (conn.on_established) conn.on_established(conn);
        if (!seg.payload.empty()) {
          conn.rcv_next_ = seg.seq + static_cast<std::uint32_t>(seg.payload.size());
          if (conn.on_data) conn.on_data(conn, BytesView(seg.payload));
        }
      }
      break;
    case TcpConnection::State::kEstablished:
      if (seg.flags.fin) {
        conn.rcv_next_ = seg.seq + 1;
        conn.state_ = TcpConnection::State::kClosed;
        tcp_emit(conn, TcpFlags{.fin = true, .ack = true}, {});
        if (conn.on_close) conn.on_close(conn);
        connections_.erase(it);
        return;
      }
      if (!seg.payload.empty()) {
        conn.rcv_next_ = seg.seq + static_cast<std::uint32_t>(seg.payload.size());
        if (conn.on_data) conn.on_data(conn, BytesView(seg.payload));
      }
      break;
    case TcpConnection::State::kClosed:
      if (seg.flags.fin) {
        // Our FIN crossed theirs; final ACK.
        send_raw_tcp(remote, value(seg.dst_port), value(seg.src_port),
                     TcpFlags{.ack = true}, conn.snd_next_, seg.seq + 1);
        connections_.erase(it);
      }
      break;
  }
}

// ------------------------------------------------------------------ Router

Router::Router(Switch& net, MacAddress mac, Ipv4Address ip, int prefix_len)
    : Host(net, mac, "router"), subnet_(Ipv4Address(ip.value() & 0xffffff00)) {
  (void)prefix_len;  // /24 pools only; parameter reserved for future use
  set_static_ip(ip);
  open_udp(kDhcpServerPort,
           [this](Host&, const PacketView& packet, const UdpDatagram&) {
             handle_dhcp(packet);
           });
}

Ipv4Address Router::lease_for(const MacAddress& mac) {
  const auto it = leases_.find(mac);
  if (it != leases_.end()) return it->second;
  Ipv4Address assigned(subnet_.value() | next_host_++);
  leases_[mac] = assigned;
  return assigned;
}

void Router::handle_dhcp(const PacketView& packet) {
  const DhcpMessage* msg = dhcp_of(packet);
  if (msg == nullptr || !msg->is_request) return;
  const auto type = msg->message_type();
  if (type != DhcpMessageType::kDiscover && type != DhcpMessageType::kRequest)
    return;

  DhcpMessage reply;
  reply.is_request = false;
  reply.xid = msg->xid;
  reply.client_mac = msg->client_mac;
  reply.yiaddr = lease_for(msg->client_mac);
  reply.siaddr = ip();
  reply.set_message_type(type == DhcpMessageType::kDiscover
                             ? DhcpMessageType::kOffer
                             : DhcpMessageType::kAck);
  reply.add_ip_option(DhcpOption::kSubnetMask, Ipv4Address(255, 255, 255, 0));
  reply.add_ip_option(DhcpOption::kRouter, ip());
  reply.add_ip_option(DhcpOption::kDnsServer, ip());
  reply.add_option(DhcpOption::kLeaseTime, Bytes{0x00, 0x01, 0x51, 0x80});
  reply.add_ip_option(DhcpOption::kServerId, ip());

  // DHCP replies go to the broadcast address (client has no IP yet).
  send_udp(Ipv4Address(255, 255, 255, 255), kDhcpServerPort, kDhcpClientPort,
           encode_dhcp(reply));
}

}  // namespace roomnet
