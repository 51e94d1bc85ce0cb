#include "capture/flow.hpp"

namespace roomnet {

BytesView Flow::first_client_payload() const {
  for (const auto& p : packets)
    if (p.from_client && !p.payload.empty()) return p.payload;
  return {};
}

BytesView Flow::first_server_payload() const {
  for (const auto& p : packets)
    if (!p.from_client && !p.payload.empty()) return p.payload;
  return {};
}

}  // namespace roomnet
