#include "sim/network.hpp"

#include <algorithm>

#include "proto/app.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {

namespace {
// WireProto (the coarse per-protocol frame bucket) lives in
// netcore/packet_view.hpp so the capture store's side index shares it.
struct SwitchMetrics {
  telemetry::Counter& frames =
      telemetry::Registry::global().counter("roomnet_switch_frames_total");
  telemetry::Counter& bytes =
      telemetry::Registry::global().counter("roomnet_switch_bytes_total");
  telemetry::Counter* per_proto[static_cast<std::size_t>(WireProto::kCount)];

  SwitchMetrics() {
    for (std::size_t i = 0; i < static_cast<std::size_t>(WireProto::kCount);
         ++i) {
      per_proto[i] = &telemetry::Registry::global().counter(
          "roomnet_switch_proto_frames_total",
          {{"proto", kWireProtoNames[i]}});
    }
  }
};
SwitchMetrics& switch_metrics() {
  static SwitchMetrics metrics;
  return metrics;
}
}  // namespace

void Switch::attach(NetworkNode& node) {
  nodes_.push_back(&node);
  by_mac_[node.mac()] = &node;
}

void Switch::detach(const NetworkNode& node) {
  nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), &node), nodes_.end());
  by_mac_.erase(node.mac());
}

void Switch::transmit(BytesView frame, const NetworkNode* sender) {
  if (frame.size() < 14) return;  // runt
  if (sender != nullptr && !sender->online()) {
    // Radio off: the frame never reaches the air (nor the AP capture).
    telemetry::Registry::global()
        .counter("roomnet_faults_frames_offline_total")
        .inc();
    return;
  }
  // The single ingress copy: after this point the frame bytes are shared —
  // fault mutations happen while the buffer is still exclusively ours.
  auto shared = std::make_shared<Bytes>(frame.begin(), frame.end());
  int copies = 1;
  SimTime extra_delay;
  if (fault_hook_) {
    const FrameFate fate = fault_hook_(shared->size());
    if (!fate_taps_.empty()) {
      const bool anomalous =
          fate.drop || fate.copies != 1 || fate.extra_delay.us() > 0 ||
          (fate.truncate_to != 0 && fate.truncate_to < shared->size()) ||
          (fate.corrupt_mask != 0 && fate.corrupt_at < shared->size());
      if (anomalous) {
        // Sender MAC: from the node when known, else the frame's source
        // field (bytes 6..11).
        MacAddress src;
        if (sender != nullptr) {
          src = sender->mac();
        } else {
          std::uint64_t v = 0;
          for (std::size_t i = 6; i < 12; ++i) v = (v << 8) | frame[i];
          src = MacAddress::from_u64(v);
        }
        for (const auto& tap : fate_taps_)
          tap(loop_->now(), src, fate, shared->size());
      }
    }
    if (fate.drop) return;
    if (fate.truncate_to != 0 && fate.truncate_to < shared->size())
      shared->resize(fate.truncate_to);
    if (fate.corrupt_mask != 0 && fate.corrupt_at < shared->size())
      (*shared)[fate.corrupt_at] ^= fate.corrupt_mask;
    copies = fate.copies;
    extra_delay = fate.extra_delay;
  }
  ++frames_;
  SwitchMetrics& metrics = switch_metrics();
  metrics.frames.inc();
  metrics.bytes.inc(shared->size());
  for (const auto& tap : taps_) tap(loop_->now(), BytesView(*shared));

  // One event per frame; the fan-out happens inside deliver(). Duplicated
  // frames deliver back-to-back at the same (jittered) timestamp. Each
  // closure shares the one ingress buffer (a refcount bump, not a copy).
  for (int c = 0; c < copies; ++c) {
    loop_->schedule_in(
        kPropagationDelay + extra_delay,
        [this, sender, shared] { deliver(BytesView(*shared), sender); });
  }
}

void Switch::deliver(BytesView frame, const NetworkNode* sender) {
  const auto packet = decode_frame_view(frame);
  if (!packet) return;
  // One app-layer memo per delivery: every tap and receiver below shares
  // the payload's DNS/SSDP/DHCP decode.
  const AppScope app(*packet);
  switch_metrics()
      .per_proto[static_cast<std::size_t>(wire_proto(*packet))]
      ->inc();
  for (const auto& tap : packet_taps_) tap(loop_->now(), *packet, frame);

  const MacAddress dst = packet->eth.dst;
  if (!dst.is_multicast()) {
    const auto it = by_mac_.find(dst);
    if (it != by_mac_.end()) {
      // Offline receivers (device churn) miss the frame entirely.
      if (it->second != sender && it->second->online())
        it->second->receive(*packet, frame);
      return;
    }
    // Unknown unicast floods, like a real switch before learning.
  }
  for (NetworkNode* node : nodes_) {
    if (node == sender || !node->online()) continue;
    node->receive(*packet, frame);
  }
}

}  // namespace roomnet
