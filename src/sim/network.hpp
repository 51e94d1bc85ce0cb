// The local broadcast domain: a learning L2 switch standing in for the lab's
// Wi-Fi AP. Frames addressed to a known unicast MAC are delivered to that
// port; multicast/broadcast (and unknown unicast) frames flood. Taps see
// every frame — that is the paper's tcpdump-on-the-AP vantage point.
//
// Performance note: a sender writes each frame once, into a buffer from the
// switch's pool (frame_buffer()), and transmit() takes that buffer over; no
// byte is copied on the way to the receivers. While in flight the frame sits
// in a slot of a recycled slab, and each delivery event captures only
// `{this, slot}`, which fits std::function's inline storage. After the last
// delivery (a duplicated frame has two) the buffer, capacity kept, returns
// to the pool, so in steady state a frame costs no heap block. At delivery
// time the frame is view-decoded exactly once and the PacketView is shared
// by every receiver and packet tap. So is its app-layer memo
// (proto/app.hpp): the payload is decoded as DNS, SSDP or DHCP at most once
// each, on first ask. A flooded multicast announcement costs one view
// decode, one app-layer decode and N handler calls.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/bytes.hpp"
#include "netcore/packet.hpp"
#include "netcore/packet_view.hpp"
#include "sim/engine.hpp"

namespace roomnet {

/// Anything attachable to the switch (devices, phones, honeypots, scanners).
class NetworkNode {
 public:
  virtual ~NetworkNode() = default;
  [[nodiscard]] virtual MacAddress mac() const = 0;
  /// `packet` is the shared zero-copy decode of `raw`: its slices point into
  /// the switch's frame buffer, which only lives for the duration of the
  /// delivery event: afterwards the buffer is recycled for the next frame
  /// (and, under AddressSanitizer, poisoned until then). Implementations
  /// must not retain views past the call — anything kept must be copied
  /// (see DESIGN.md §10).
  virtual void receive(const PacketView& packet, BytesView raw) = 0;
  /// Whether the node's radio is up. Offline nodes (device churn, §faults)
  /// neither transmit nor receive; the switch consults this per frame.
  [[nodiscard]] virtual bool online() const { return true; }
};

class Switch {
 public:
  /// Raw tap: invoked at transmit time for every frame (the capture sink).
  /// The view dies with the call; copy what you keep.
  using Tap = std::function<void(SimTime, BytesView)>;
  /// Decoded tap: invoked once per frame at delivery time, sharing the
  /// receivers' decode. Preferred for streaming analysis. The same lifetime
  /// rule as NetworkNode::receive applies: the buffer is recycled after the
  /// delivery, so copy what you keep.
  using PacketTap = std::function<void(SimTime, const PacketView&, BytesView)>;

  /// Per-frame verdict of the fault-injection hook (roomnet::faults). The
  /// default-constructed fate is "deliver exactly once, unmodified, after
  /// the standard propagation delay" — i.e. the lossless network.
  struct FrameFate {
    bool drop = false;
    /// Delivery count: 1 normal, 2 duplicated.
    int copies = 1;
    /// Extra delivery latency on top of the propagation delay (jitter;
    /// values past ~2x the propagation delay push a frame behind its
    /// successors, i.e. reordering).
    SimTime extra_delay;
    /// When nonzero and smaller than the frame: cut the frame to this many
    /// bytes before it hits the air (taps see the truncated frame too).
    std::size_t truncate_to = 0;
    /// When `corrupt_mask` is nonzero and `corrupt_at` is in range, byte
    /// `corrupt_at` is XORed with the mask.
    std::size_t corrupt_at = 0;
    std::uint8_t corrupt_mask = 0;
  };
  /// Consulted once per transmitted frame, in transmit order, on the sim
  /// thread — so a deterministic hook yields a deterministic fault pattern.
  using FaultHook = std::function<FrameFate(std::size_t frame_size)>;

  /// Fault-verdict tap: invoked at transmit time (sim thread, transmit
  /// order) for every frame whose fate deviates from the default — i.e.
  /// only when a fault hook is installed AND it actually mutated the frame,
  /// so clean runs pay nothing and stay bit-for-bit unchanged. `src` is the
  /// transmitting node's MAC and `frame_size` the pre-truncation size.
  using FateTap = std::function<void(SimTime, MacAddress src,
                                     const FrameFate&, std::size_t frame_size)>;

  explicit Switch(EventLoop& loop) : loop_(&loop) {}
  ~Switch();
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  void attach(NetworkNode& node);
  void detach(const NetworkNode& node);
  void add_tap(Tap tap) { taps_.push_back(std::move(tap)); }
  void add_packet_tap(PacketTap tap) { packet_taps_.push_back(std::move(tap)); }
  void add_fate_tap(FateTap tap) { fate_taps_.push_back(std::move(tap)); }
  /// Installs (or, with an empty hook, removes) the fault-injection hook.
  /// Without a hook the switch is the historical lossless network.
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  /// Takes `frame` over and queues it for delivery after the propagation
  /// delay. The sender never receives its own frame back. Once its last
  /// delivery is done (or it is dropped), the buffer returns to the pool.
  void transmit(Bytes frame, const NetworkNode* sender);
  /// An empty buffer to write the next frame into: a recycled one, capacity
  /// kept, when the pool has one, else a new one (counted in
  /// roomnet_switch_frame_buffers_total).
  [[nodiscard]] Bytes frame_buffer();

  [[nodiscard]] EventLoop& loop() { return *loop_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::uint64_t frames_transmitted() const { return frames_; }

 private:
  /// A frame between transmit and its last delivery.
  struct InFlight {
    Bytes frame;
    const NetworkNode* sender = nullptr;
    int deliveries_left = 0;
  };

  void deliver_slot(std::uint32_t slot);
  void deliver(BytesView frame, const NetworkNode* sender);
  void recycle(Bytes buffer);

  static constexpr SimTime kPropagationDelay = SimTime::from_us(300);
  /// Pool bound: more frames than this are rarely in flight at once (a
  /// burst of flooded answers), and a frame beyond it just frees its buffer.
  static constexpr std::size_t kMaxFreeBuffers = 64;

  EventLoop* loop_;
  std::vector<NetworkNode*> nodes_;
  std::unordered_map<MacAddress, NetworkNode*> by_mac_;
  std::vector<Tap> taps_;
  std::vector<PacketTap> packet_taps_;
  std::vector<FateTap> fate_taps_;
  FaultHook fault_hook_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<Bytes> free_buffers_;
  std::uint64_t frames_ = 0;
};

}  // namespace roomnet
