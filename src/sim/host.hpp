// Host: a network stack attached to the switch. Every simulated entity —
// IoT device, router, smartphone, honeypot, scanner — is a Host configured
// with different behaviors. The stack provides ARP (cache + responder),
// a DHCP client, IPv4/IPv6 send paths, UDP port handlers, and a minimal TCP
// state machine (handshake / data / teardown / RST-on-closed) sufficient for
// SYN scanning, banner grabbing, and payload classification.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/bytes.hpp"
#include "netcore/packet.hpp"
#include "netcore/rng.hpp"
#include "proto/dhcp.hpp"
#include "sim/network.hpp"

namespace roomnet {

/// Maps an IPv4 multicast group to its Ethernet group MAC (01:00:5e + 23
/// low bits), per RFC 1112.
MacAddress multicast_mac_v4(Ipv4Address group);
/// Maps an IPv6 multicast group to 33:33 + 32 low bits (RFC 2464).
MacAddress multicast_mac_v6(const Ipv6Address& group);

class Host;

/// One established TCP connection endpoint. Obtained from listen/connect
/// callbacks; valid until closed.
class TcpConnection {
 public:
  void send(BytesView data);
  void close();

  [[nodiscard]] Ipv4Address remote_ip() const { return remote_ip_; }
  [[nodiscard]] Port remote_port() const { return remote_port_; }
  [[nodiscard]] Port local_port() const { return local_port_; }
  [[nodiscard]] bool established() const { return state_ == State::kEstablished; }

  /// Payload delivery to the application.
  std::function<void(TcpConnection&, BytesView)> on_data;
  std::function<void(TcpConnection&)> on_established;
  std::function<void(TcpConnection&)> on_close;
  /// Set by the connect() caller: fires if the peer answers with RST.
  std::function<void()> on_refused;

 private:
  friend class Host;
  friend class HostTcpAccess;
  enum class State { kSynSent, kSynReceived, kEstablished, kClosed };

  Host* host_ = nullptr;
  Ipv4Address remote_ip_;
  Port remote_port_{};
  Port local_port_{};
  std::uint32_t snd_next_ = 0;
  std::uint32_t rcv_next_ = 0;
  State state_ = State::kSynSent;
};

class Host : public NetworkNode {
 public:
  Host(Switch& net, MacAddress mac, std::string label);
  ~Host() override;

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  // -- identity --------------------------------------------------------
  [[nodiscard]] MacAddress mac() const override { return mac_; }
  [[nodiscard]] Ipv4Address ip() const { return ip_; }
  [[nodiscard]] bool has_ip() const { return ip_.value() != 0; }
  [[nodiscard]] Ipv6Address link_local() const { return link_local_; }
  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] EventLoop& loop() { return net_->loop(); }
  [[nodiscard]] Switch& network() { return *net_; }

  void set_static_ip(Ipv4Address ip) { ip_ = ip; }
  void enable_ipv6(bool on) { ipv6_enabled_ = on; }
  [[nodiscard]] bool ipv6_enabled() const { return ipv6_enabled_; }

  /// Device churn (roomnet::faults): an offline host's radio is down — the
  /// switch drops its transmissions and never delivers to it. Protocol
  /// state (leases, TCP connections, timers) survives the outage, like a
  /// device dropping off Wi-Fi and rejoining.
  void set_online(bool on) { online_ = on; }
  [[nodiscard]] bool online() const override { return online_; }

  // -- behavior knobs (per-vendor policies set by the testbed layer) ----
  /// §5.1: only 58% of lab devices answer broadcast ARP sweeps, but all
  /// answer targeted requests for their own IP.
  bool responds_to_broadcast_arp = true;
  /// Whether a closed TCP port answers RST (false = drop, "filtered").
  bool rst_on_closed_tcp = true;
  /// Whether the host answers ICMP echo.
  bool responds_to_ping = true;

  // -- DHCP client ------------------------------------------------------
  /// Broadcasts DISCOVER; on ACK assigns the offered IP and fires
  /// on_ip_acquired. hostname/vendor_class empty => option omitted.
  void start_dhcp(std::string hostname, std::string vendor_class,
                  std::vector<std::uint8_t> param_request_list);
  std::function<void(Host&)> on_ip_acquired;
  /// Bounded DHCP retransmit for lossy networks: when > 0, the DISCOVER is
  /// re-broadcast up to this many times with exponential backoff
  /// (dhcp_retry_base_s * 2^attempt) while no lease has been acquired.
  /// 0 (default) preserves the historical fire-once behavior exactly: the
  /// retry checks are never scheduled.
  int dhcp_max_retries = 0;
  double dhcp_retry_base_s = 2.0;

  // -- ARP --------------------------------------------------------------
  /// Broadcast ARP request for one IP.
  void arp_request(Ipv4Address target);
  /// Broadcast sweep of the /24 the host lives in (Echo's daily scan).
  void arp_scan_subnet();
  [[nodiscard]] std::optional<MacAddress> arp_lookup(Ipv4Address ip) const;
  /// Seeds the cache out of band (e.g. a scanner that knows its targets).
  void add_arp_entry(Ipv4Address ip, MacAddress mac) { arp_cache_[ip] = mac; }
  /// MACs learned from ARP traffic (what spyware harvests via libarp.so).
  [[nodiscard]] const std::unordered_map<Ipv4Address, MacAddress>& arp_cache()
      const {
    return arp_cache_;
  }

  // -- L2 / misc emitters ------------------------------------------------
  /// Hands a whole Ethernet frame to the switch, which takes it over.
  void send_frame(Bytes frame);
  /// `arp` in an Ethernet frame to `eth_dst`, sent from this host's MAC.
  void send_arp(const ArpPacket& arp, MacAddress eth_dst);
  void send_eapol_key(Rng& rng);
  void send_llc_xid_broadcast();
  void send_icmp_echo(Ipv4Address dst);
  void join_multicast_group(Ipv4Address group);  // emits IGMP v2 report
  /// ICMPv6 neighbor solicitation for `target` (SLAAC-style, exposes MAC).
  void send_neighbor_solicitation(const Ipv6Address& target);

  // -- UDP ----------------------------------------------------------------
  /// Handlers receive the shared zero-copy decode; the views die with the
  /// delivery event, so any payload kept for later must be copied.
  using UdpHandler =
      std::function<void(Host&, const PacketView&, const UdpDatagram&)>;

  /// Opens a UDP port with a handler. The port then counts as "open" for
  /// UDP scans.
  void open_udp(std::uint16_t port, UdpHandler handler);
  /// Closes a previously opened UDP port (handlers whose captures die must
  /// deregister before their state goes away).
  void close_udp(std::uint16_t port) { udp_handlers_.erase(port); }
  /// Sees every UDP datagram addressed to this host or multicast/broadcast,
  /// regardless of port (honeypots, sniffers, multicast listeners).
  void on_any_udp(UdpHandler handler) { any_udp_ = std::move(handler); }
  [[nodiscard]] std::vector<std::uint16_t> open_udp_ports() const;
  [[nodiscard]] bool udp_port_open(std::uint16_t port) const {
    return udp_handlers_.count(port) != 0;
  }

  void send_udp(Ipv4Address dst, std::uint16_t sport, std::uint16_t dport,
                BytesView payload);
  void send_udp_v6(const Ipv6Address& dst, std::uint16_t sport,
                   std::uint16_t dport, BytesView payload);
  /// Source port chosen ephemerally (deterministic per host).
  std::uint16_t ephemeral_port();

  // -- TCP ----------------------------------------------------------------
  /// Invoked when a connection to a listening port completes its handshake.
  using AcceptHandler = std::function<void(Host&, TcpConnection&)>;

  void listen_tcp(std::uint16_t port, AcceptHandler on_accept);
  [[nodiscard]] std::vector<std::uint16_t> open_tcp_ports() const;
  [[nodiscard]] bool tcp_port_open(std::uint16_t port) const {
    return tcp_listeners_.count(port) != 0;
  }

  /// Initiates a connection. The returned connection is owned by the host;
  /// set callbacks on it before the next event fires (delivery is delayed by
  /// the propagation latency, so same-call setup is safe).
  TcpConnection& connect_tcp(Ipv4Address dst, std::uint16_t dport);

  /// Raw segment injection for the scanner (bypasses connection state).
  void send_raw_tcp(Ipv4Address dst, std::uint16_t sport, std::uint16_t dport,
                    TcpFlags flags, std::uint32_t seq = 0, std::uint32_t ack = 0);
  /// Raw IP-protocol probe (IP protocol scan support).
  void send_raw_ip(Ipv4Address dst, std::uint8_t protocol, BytesView payload);

  /// Observers of every packet addressed to (or flooded past) this host,
  /// after stack processing. Used by monitors and SDK models.
  std::function<void(Host&, const PacketView&)> packet_monitor;
  /// IP protocols (beyond ICMP/IGMP/TCP/UDP) this host "supports": an
  /// IP-protocol scan elicits a response for these (§4.2's 58 devices).
  std::vector<std::uint8_t> extra_ip_protocols;

  // NetworkNode:
  void receive(const PacketView& packet, BytesView raw) override;

 private:
  // Frame builder: every send path writes its whole frame (Ethernet, IP,
  // transport header, payload) into one buffer from the switch's pool.
  /// A frame started with its Ethernet header, its buffer reserved for a
  /// `payload_len`-byte payload so writing it takes at most one allocation.
  ByteWriter begin_frame(MacAddress dst, std::uint16_t ethertype,
                         std::size_t payload_len);
  /// An IPv4 frame started up to its `payload_len`-byte payload. The
  /// Ethernet destination is left zero for deliver_ipv4 to fill in.
  ByteWriter begin_ipv4(Ipv4Address dst, IpProto protocol,
                        std::size_t payload_len, std::uint8_t ttl = 64);
  /// An IPv6 frame from the link-local address, started up to its payload.
  ByteWriter begin_ipv6(MacAddress eth_dst, const Ipv6Address& dst,
                        IpProto next_header, std::size_t payload_len);
  /// Resolves `dst` to a MAC, patches it into the frame's Ethernet header
  /// and sends; an unresolved unicast frame waits whole for the ARP reply.
  void deliver_ipv4(Bytes frame, Ipv4Address dst);
  void send_dhcp_discover();
  void schedule_dhcp_retry(int attempt);
  void handle_arp(const ArpPacket& arp);
  void handle_ipv4(const PacketView& packet);
  void handle_ipv6(const PacketView& packet);
  void handle_udp(const PacketView& packet);
  void handle_tcp(const PacketView& packet);
  void handle_dhcp_reply(const DhcpMessage& msg);

  friend class TcpConnection;

  using TcpKey = std::uint64_t;  // remote ip (32) | remote port (16) | local port (16)
  static TcpKey tcp_key(Ipv4Address remote, Port remote_port, Port local_port);
  void tcp_emit(TcpConnection& conn, TcpFlags flags, BytesView payload);

  Switch* net_;
  MacAddress mac_;
  Ipv4Address ip_;
  Ipv6Address link_local_;
  std::string label_;
  bool ipv6_enabled_ = true;
  bool online_ = true;

  std::unordered_map<Ipv4Address, MacAddress> arp_cache_;
  /// Whole IPv4 frames waiting for their destination's ARP reply.
  std::unordered_map<Ipv4Address, std::vector<Bytes>> arp_pending_;
  /// The port-unreachable quote, rebuilt in place for each answer.
  Bytes quote_;

  std::map<std::uint16_t, UdpHandler> udp_handlers_;
  UdpHandler any_udp_;

  std::map<std::uint16_t, AcceptHandler> tcp_listeners_;
  std::unordered_map<TcpKey, std::unique_ptr<TcpConnection>> connections_;

  std::uint16_t next_ephemeral_ = 49152;
  std::uint32_t next_iss_ = 1000;  // initial sequence numbers

  // DHCP client state
  std::string dhcp_hostname_;
  std::string dhcp_vendor_class_;
  std::vector<std::uint8_t> dhcp_params_;
  std::uint32_t dhcp_xid_ = 0;
};

/// The home router: gateway + DHCP server. Assigns addresses from a /24
/// pool and answers with router/DNS options pointing at itself.
class Router : public Host {
 public:
  Router(Switch& net, MacAddress mac, Ipv4Address ip, int prefix_len = 24);

  [[nodiscard]] Ipv4Address subnet_base() const { return subnet_; }
  /// MAC -> leased IP.
  [[nodiscard]] const std::map<MacAddress, Ipv4Address>& leases() const {
    return leases_;
  }

 private:
  void handle_dhcp(const PacketView& packet);
  Ipv4Address lease_for(const MacAddress& mac);

  Ipv4Address subnet_;
  std::uint32_t next_host_ = 10;
  std::map<MacAddress, Ipv4Address> leases_;
};

}  // namespace roomnet
