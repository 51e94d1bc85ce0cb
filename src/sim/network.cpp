#include "sim/network.hpp"

#include <algorithm>
#include <utility>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

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
  telemetry::Counter& buffers = telemetry::Registry::global().counter(
      "roomnet_switch_frame_buffers_total");
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

Switch::~Switch() {
  for (Bytes& buffer : free_buffers_)
    ASAN_UNPOISON_MEMORY_REGION(buffer.data(), buffer.capacity());
}

void Switch::attach(NetworkNode& node) {
  nodes_.push_back(&node);
  by_mac_[node.mac()] = &node;
}

void Switch::detach(const NetworkNode& node) {
  nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), &node), nodes_.end());
  by_mac_.erase(node.mac());
}

Bytes Switch::frame_buffer() {
  if (free_buffers_.empty()) {
    switch_metrics().buffers.inc();
    return {};
  }
  Bytes buffer = std::move(free_buffers_.back());
  free_buffers_.pop_back();
  ASAN_UNPOISON_MEMORY_REGION(buffer.data(), buffer.capacity());
  return buffer;
}

void Switch::recycle(Bytes buffer) {
  if (buffer.capacity() == 0 || free_buffers_.size() >= kMaxFreeBuffers)
    return;
  buffer.clear();
  // A view kept past its delivery now reads poison, not the next frame.
  ASAN_POISON_MEMORY_REGION(buffer.data(), buffer.capacity());
  free_buffers_.push_back(std::move(buffer));
}

void Switch::transmit(Bytes frame, const NetworkNode* sender) {
  if (frame.size() < 14) return recycle(std::move(frame));  // runt
  if (sender != nullptr && !sender->online()) {
    // Radio off: the frame never reaches the air (nor the AP capture).
    telemetry::Registry::global()
        .counter("roomnet_faults_frames_offline_total")
        .inc();
    return recycle(std::move(frame));
  }
  // Fault mutations happen here, while the buffer is still the sender's
  // alone: taps and every delivery see the mutated frame.
  int copies = 1;
  SimTime extra_delay;
  if (fault_hook_) {
    const FrameFate fate = fault_hook_(frame.size());
    if (!fate_taps_.empty()) {
      const bool anomalous =
          fate.drop || fate.copies != 1 || fate.extra_delay.us() > 0 ||
          (fate.truncate_to != 0 && fate.truncate_to < frame.size()) ||
          (fate.corrupt_mask != 0 && fate.corrupt_at < frame.size());
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
          tap(loop_->now(), src, fate, frame.size());
      }
    }
    if (fate.drop) return recycle(std::move(frame));
    if (fate.truncate_to != 0 && fate.truncate_to < frame.size())
      frame.resize(fate.truncate_to);
    if (fate.corrupt_mask != 0 && fate.corrupt_at < frame.size())
      frame[fate.corrupt_at] ^= fate.corrupt_mask;
    copies = fate.copies;
    extra_delay = fate.extra_delay;
  }
  ++frames_;
  SwitchMetrics& metrics = switch_metrics();
  metrics.frames.inc();
  metrics.bytes.inc(frame.size());
  for (const auto& tap : taps_) tap(loop_->now(), BytesView(frame));
  if (copies < 1) return recycle(std::move(frame));

  // The frame waits in a slot; one event per delivery copy, the fan-out
  // happens inside deliver(). Duplicated frames deliver back-to-back at the
  // same (jittered) timestamp.
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  in_flight_[slot] = InFlight{std::move(frame), sender, copies};
  for (int c = 0; c < copies; ++c)
    loop_->schedule_in(kPropagationDelay + extra_delay,
                       [this, slot] { deliver_slot(slot); });
}

void Switch::deliver_slot(std::uint32_t slot) {
  // Receivers transmit while the delivery runs, which may grow the slab:
  // the frame leaves its slot first, and a duplicate's returns after.
  InFlight& entry = in_flight_[slot];
  Bytes frame = std::move(entry.frame);
  const NetworkNode* sender = entry.sender;
  const bool last = --entry.deliveries_left == 0;
  if (last) free_slots_.push_back(slot);
  deliver(frame, sender);
  if (last)
    recycle(std::move(frame));
  else
    in_flight_[slot].frame = std::move(frame);
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
