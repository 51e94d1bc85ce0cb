// Flow identity per RFC 6146's 5-tuple definition (§C.2): TCP segments /
// UDP datagrams sharing (src IP, src port, dst IP, dst port, transport).
// Flows are bidirectional — the reverse tuple maps to the same flow with
// direction flags — matching how nDPI groups packets. The FlowCache
// (capture/flow_cache.hpp) assembles them; a Flow is the classifier's view
// of one, synthesized by FlowRecord::to_flow().
#pragma once

#include <cstdint>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/packet.hpp"
#include "netcore/time.hpp"

namespace roomnet {

struct FlowKey {
  Ipv4Address client_ip;  // initiator (first packet's source)
  Port client_port{};
  Ipv4Address server_ip;
  Port server_port{};
  std::uint8_t protocol = 0;  // IPPROTO_TCP / IPPROTO_UDP

  friend auto operator<=>(const FlowKey&, const FlowKey&) = default;
};

/// Hash for the flow cache's bucket index. Flows leave the cache in
/// creation order (FlowCache::flush), so results never depend on this.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const {
    // splitmix64-style mixing of the packed tuple halves.
    auto mix = [](std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ull;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
      return x ^ (x >> 31);
    };
    const std::uint64_t a =
        (static_cast<std::uint64_t>(k.client_ip.value()) << 32) |
        (static_cast<std::uint64_t>(value(k.client_port)) << 16) |
        value(k.server_port);
    const std::uint64_t b =
        (static_cast<std::uint64_t>(k.server_ip.value()) << 8) | k.protocol;
    return static_cast<std::size_t>(mix(a ^ mix(b)));
  }
};

struct FlowPacket {
  SimTime timestamp;
  bool from_client = true;
  /// Transport payload (may be empty for pure ACKs). A view into whatever
  /// buffer backs the flow — the FlowRecord payload copies for a flow from
  /// FlowRecord::to_flow() — which must outlive the Flow.
  BytesView payload;
  TcpFlags tcp_flags;  // zero-initialized for UDP
};

/// The classifier input for one flow: its key and packets in time order.
struct Flow {
  FlowKey key;
  std::vector<FlowPacket> packets;

  /// First non-empty payload in each direction (classifier inputs).
  [[nodiscard]] BytesView first_client_payload() const;
  [[nodiscard]] BytesView first_server_payload() const;
};

}  // namespace roomnet
