#include "proto/app.hpp"

#include <stdexcept>

namespace roomnet {

namespace {

template <class T>
const T* memoized(const PacketView& packet, AppLayers::Slot<T> AppLayers::*slot,
                  std::optional<T> (*decode)(BytesView)) {
  const BytesView payload = packet.app_payload();
  if (payload.empty()) return nullptr;
  if (packet.app == nullptr)
    throw std::logic_error("app-layer accessor on a PacketView with no AppScope");
  AppLayers::Slot<T>& s = packet.app->*slot;
  if (!s.decoded) {
    s.value = decode(payload);
    s.decoded = true;
  }
  return s.value ? &*s.value : nullptr;
}

}  // namespace

const DnsView* dns_of(const PacketView& packet) {
  return memoized(packet, &AppLayers::dns, view_dns);
}

const SsdpView* ssdp_of(const PacketView& packet) {
  return memoized(packet, &AppLayers::ssdp, view_ssdp);
}

const DhcpMessage* dhcp_of(const PacketView& packet) {
  return memoized(packet, &AppLayers::dhcp, decode_dhcp);
}

}  // namespace roomnet
