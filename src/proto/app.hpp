// App-layer reads of one frame, shared by everyone who reads the frame.
//
// The switch decodes a transmitted frame into one PacketView and hands it to
// every receiver and packet tap; a pcap reader hands its view to every
// stream builder. The accessors below read that view's transport payload
// as DNS/mDNS, SSDP or DHCP at most once each, on first ask, and give every
// later caller the same result. A payload that does not decode is
// remembered too, so the deep classifier's speculative probes of arbitrary
// UDP payloads cost one decode per protocol, not one per consumer.
//
// DNS and SSDP are views (DnsView, SsdpView): one validating walk per
// payload, and every name, record, TXT string and header value is a slice of
// the frame. DHCP is decoded into its owning struct.
//
// Ownership and lifetime: an AppScope owns the memo (AppLayers) and attaches
// it to a PacketView for the scope's lifetime, unless the view already
// carries one. The memo lives exactly as long as the frame bytes it was
// read from need to (one delivery, one on_packet call). A view dies with
// the delivery: a returned pointer, and every slice reached through it,
// must not outlive the call that received the packet. Copy what you keep
// (to_string, to_message).
//
// Threads: the memo fills lazily and without locking. A view with a memo
// attached, and every copy of it, belongs to one thread until the scope
// that attached the memo ends.
//
// view_dns/view_ssdp read bytes that are not a frame's own payload (a
// flow's stored payloads); decode_dns/decode_ssdp/decode_dhcp make owning
// copies (TCP stream data, tests).
#pragma once

#include <optional>

#include "netcore/packet_view.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"

namespace roomnet {

/// One frame's memoized app-layer reads. A slot is filled on first ask;
/// `value` is empty when the payload did not decode as that protocol.
struct AppLayers {
  template <class T>
  struct Slot {
    bool decoded = false;
    std::optional<T> value;
  };
  Slot<DnsView> dns;
  Slot<SsdpView> ssdp;
  Slot<DhcpMessage> dhcp;
};

/// Attaches a fresh memo to `packet` for this scope's lifetime when it has
/// none; otherwise does nothing, so nested consumers share the outer memo.
/// Every entry point that reads app layers off a caller's view opens one.
class AppScope {
 public:
  explicit AppScope(const PacketView& packet) {
    if (packet.app == nullptr) {
      packet.app = &memo_;
      owner_ = &packet;
    }
  }
  ~AppScope() {
    if (owner_ != nullptr) owner_->app = nullptr;
  }
  AppScope(const AppScope&) = delete;
  AppScope& operator=(const AppScope&) = delete;

 private:
  AppLayers memo_;
  const PacketView* owner_ = nullptr;
};

/// The frame's payload read as DNS/mDNS, SSDP or DHCP, whatever its ports;
/// nullptr when it does not decode (or the frame has no transport payload).
/// Throws std::logic_error on a view with a transport payload but no memo
/// attached (no AppScope open).
[[nodiscard]] const DnsView* dns_of(const PacketView& packet);
[[nodiscard]] const SsdpView* ssdp_of(const PacketView& packet);
[[nodiscard]] const DhcpMessage* dhcp_of(const PacketView& packet);

}  // namespace roomnet
