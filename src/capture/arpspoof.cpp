#include "capture/arpspoof.hpp"

namespace roomnet {

ArpSpoofer::ArpSpoofer(Host& host) : host_(&host) {
  host_->packet_monitor = [this](Host&, const PacketView& packet) {
    on_packet(packet);
  };
}

const ArpSpoofer::Victim* ArpSpoofer::victim_by_ip(Ipv4Address ip) const {
  for (const auto& victim : victims_)
    if (victim.ip == ip) return &victim;
  return nullptr;
}

void ArpSpoofer::start(SimTime interval) {
  if (running_) return;
  running_ = true;
  poison_once();
  timer_ = host_->loop().schedule_periodic(interval, interval,
                                           [this] { poison_once(); });
}

void ArpSpoofer::stop() {
  if (!running_) return;
  running_ = false;
  host_->loop().cancel_periodic(timer_);
}

void ArpSpoofer::poison_once() {
  ++rounds_;
  // For every ordered victim pair (a, b): tell a that b's IP is at our MAC.
  for (const auto& a : victims_) {
    for (const auto& b : victims_) {
      if (a.ip == b.ip) continue;
      ArpPacket lie;
      lie.op = ArpOp::kReply;
      lie.sender_mac = host_->mac();  // the poisoned binding
      lie.sender_ip = b.ip;
      lie.target_mac = a.mac;
      lie.target_ip = a.ip;
      host_->send_arp(lie, a.mac);
    }
  }
}

void ArpSpoofer::on_packet(const PacketView& packet) {
  if (!running_ || !packet.ipv4) return;
  // A frame addressed to our MAC whose IP destination is a victim we
  // impersonate: record and forward to the true owner.
  if (packet.eth.dst != host_->mac()) return;
  if (packet.ipv4->dst == host_->ip()) return;  // genuinely ours
  const Victim* destination = victim_by_ip(packet.ipv4->dst);
  if (destination == nullptr) return;

  Intercept intercept;
  intercept.at = host_->loop().now();
  intercept.original_src = packet.eth.src;
  intercept.src_ip = packet.ipv4->src;
  intercept.dst_ip = packet.ipv4->dst;
  intercept.bytes = packet.eth.payload.size() + 14;

  // Transparent forward: re-frame to the true MAC (source rewritten to the
  // spoofer, as real MITM forwarding does).
  EthernetFrame eth;
  eth.dst = destination->mac;
  eth.src = host_->mac();
  eth.ethertype = packet.eth.ethertype;
  // Re-framing borrows the delivery buffer; encode_ethernet copies it once.
  eth.payload = packet.eth.payload;
  host_->send_frame(encode_ethernet(eth));
  intercept.forwarded = true;
  intercepts_.push_back(intercept);
}

}  // namespace roomnet
