#include "capture/flow_cache.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.hpp"

namespace roomnet {

const char* to_string(PruneReason reason) {
  switch (reason) {
    case PruneReason::kIdle:
      return "idle";
    case PruneReason::kEstablished:
      return "established";
    case PruneReason::kMemcap:
      return "memcap";
    case PruneReason::kExcess:
      return "excess";
    case PruneReason::kFlush:
      return "flush";
  }
  return "unknown";
}

Flow FlowRecord::to_flow() const {
  // The flow classifiers read a flow through four accessors only: key,
  // packets.empty(), first_client_payload(), first_server_payload(). Two
  // synthetic packets carrying the stored payload copies reproduce all four
  // exactly (a record exists only if at least one packet was folded, so
  // packets is correctly non-empty even when both payloads are). The
  // labels carried with the copies pass through as they are.
  Flow flow;
  flow.key = key;
  flow.first_client_label = client_label;
  flow.first_server_label = server_label;
  FlowPacket client;
  client.timestamp = first_seen;
  client.from_client = true;
  client.payload = BytesView{client_payload};
  client.tcp_flags = tcp_flags_seen;
  flow.packets.push_back(client);
  if (!server_payload.empty()) {
    FlowPacket server;
    server.timestamp = last_seen;
    server.from_client = false;
    server.payload = BytesView{server_payload};
    flow.packets.push_back(server);
  }
  return flow;
}

namespace {
constexpr std::size_t kInitialBuckets = 1024;  // power of two

std::size_t initial_buckets(const FlowCacheConfig& config) {
  std::size_t want = kInitialBuckets;
  if (config.max_flows != 0) {
    // Bounded cache: size the table once so the hot path never rehashes.
    while (want < config.max_flows) want <<= 1;
  }
  return want;
}
}  // namespace

FlowCache::FlowCache(FlowCacheConfig config, Sink sink)
    : config_(config), sink_(std::move(sink)) {
  const std::size_t n = initial_buckets(config_);
  buckets_.assign(n, kNil);
  bucket_mask_ = static_cast<std::uint32_t>(n - 1);

  auto& reg = telemetry::Registry::global();
  flows_gauge_ = &reg.gauge("roomnet_flow_cache_flows");
  bytes_gauge_ = &reg.gauge("roomnet_flow_cache_bytes");
  memcap_gauge_ = &reg.gauge("roomnet_flow_cache_memcap_bytes");
  peak_flows_gauge_ = &reg.gauge("roomnet_flow_cache_peak_flows");
  tcp_flows_counter_ =
      &reg.counter("roomnet_flow_cache_flows_total", {{"transport", "tcp"}});
  udp_flows_counter_ =
      &reg.counter("roomnet_flow_cache_flows_total", {{"transport", "udp"}});
  for (std::size_t i = 0; i < kPruneReasonCount; ++i) {
    prune_counters_[i] = &reg.counter(
        "roomnet_flow_cache_prunes_total",
        {{"reason", to_string(static_cast<PruneReason>(i))}});
  }
  age_histogram_ = &reg.histogram("roomnet_flow_cache_flow_age_us");
  memcap_gauge_->set(static_cast<std::int64_t>(config_.memcap_bytes));
}

std::uint32_t FlowCache::find(const FlowKey& key) const {
  const std::size_t bucket = FlowKeyHash{}(key)&bucket_mask_;
  for (std::uint32_t i = buckets_[bucket]; i != kNil;
       i = nodes_[i].bucket_next) {
    if (nodes_[i].rec.key == key) return i;
  }
  return kNil;
}

std::uint32_t FlowCache::create(SimTime at, const FlowKey& key) {
  // Grow the table before load factor reaches 1 so chains stay short even
  // in the unbounded (parity) configuration.
  if (config_.max_flows == 0 && stats_.active_flows + 1 > buckets_.size()) {
    const std::size_t n = buckets_.size() * 2;
    buckets_.assign(n, kNil);
    bucket_mask_ = static_cast<std::uint32_t>(n - 1);
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      Node& node = nodes_[i];
      if (!node.in_use) continue;
      node.bucket =
          static_cast<std::uint32_t>(FlowKeyHash{}(node.rec.key) & bucket_mask_);
      node.bucket_next = buckets_[node.bucket];
      buckets_[node.bucket] = i;
    }
  }

  std::uint32_t index;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else {
    index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }

  Node& node = nodes_[index];
  node.rec = FlowRecord{};
  node.rec.key = key;
  node.rec.first_seen = at;
  node.rec.last_seen = at;
  node.seq = next_seq_++;
  node.bucket = static_cast<std::uint32_t>(FlowKeyHash{}(key) & bucket_mask_);
  node.bucket_next = buckets_[node.bucket];
  buckets_[node.bucket] = index;
  node.lru_prev = kNil;
  node.lru_next = lru_head_;
  if (lru_head_ != kNil) nodes_[lru_head_].lru_prev = index;
  lru_head_ = index;
  if (lru_tail_ == kNil) lru_tail_ = index;
  node.cost = kNodeBaseCost;
  node.in_use = true;

  ++stats_.flows_created;
  if (key.protocol == 6) {
    ++stats_.tcp_flows;
    tcp_flows_counter_->inc();
  } else {
    ++stats_.udp_flows;
    udp_flows_counter_->inc();
  }
  ++stats_.active_flows;
  stats_.bytes_used += node.cost;
  stats_.peak_flows = std::max(stats_.peak_flows, stats_.active_flows);
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_used);
  return index;
}

void FlowCache::touch(std::uint32_t index) {
  if (lru_head_ == index) return;
  Node& node = nodes_[index];
  if (node.lru_prev != kNil) nodes_[node.lru_prev].lru_next = node.lru_next;
  if (node.lru_next != kNil) nodes_[node.lru_next].lru_prev = node.lru_prev;
  if (lru_tail_ == index) lru_tail_ = node.lru_prev;
  node.lru_prev = kNil;
  node.lru_next = lru_head_;
  nodes_[lru_head_].lru_prev = index;
  lru_head_ = index;
}

void FlowCache::evict(std::uint32_t index, PruneReason reason) {
  Node& node = nodes_[index];
  const std::uint64_t age_us = static_cast<std::uint64_t>(
      (node.rec.last_seen - node.rec.first_seen).us());
  age_histogram_->observe(age_us);
  ++stats_.prunes[static_cast<std::size_t>(reason)];
  prune_counters_[static_cast<std::size_t>(reason)]->inc();

  if (sink_) sink_(node.rec, reason);

  // Unlink from the bucket chain.
  std::uint32_t* link = &buckets_[node.bucket];
  while (*link != index) link = &nodes_[*link].bucket_next;
  *link = node.bucket_next;

  // Unlink from the LRU list.
  if (node.lru_prev != kNil) nodes_[node.lru_prev].lru_next = node.lru_next;
  if (node.lru_next != kNil) nodes_[node.lru_next].lru_prev = node.lru_prev;
  if (lru_head_ == index) lru_head_ = node.lru_next;
  if (lru_tail_ == index) lru_tail_ = node.lru_prev;

  --stats_.active_flows;
  stats_.bytes_used -= node.cost;
  node.rec = FlowRecord{};  // release the payload copies now
  node.in_use = false;
  node.cost = 0;
  free_.push_back(index);
}

void FlowCache::expire(SimTime at) {
  if (config_.idle_timeout.us() <= 0) return;
  // The LRU tail is the flow with the oldest last_seen; sweep from there so
  // idle evictions happen in deterministic event order.
  while (lru_tail_ != kNil) {
    Node& tail = nodes_[lru_tail_];
    if (at - tail.rec.last_seen < config_.idle_timeout) break;
    evict(lru_tail_, PruneReason::kIdle);
  }
}

void FlowCache::enforce_memcap(std::uint32_t protect) {
  if (config_.memcap_bytes == 0) return;
  while (stats_.bytes_used > config_.memcap_bytes && lru_tail_ != kNil) {
    if (lru_tail_ == protect) break;  // never evict the flow being updated
    evict(lru_tail_, PruneReason::kMemcap);
  }
}

void FlowCache::recost(std::uint32_t index) {
  Node& node = nodes_[index];
  // Payload .size() (not capacity) so the charge is identical on every
  // platform and allocator — memcap eviction order must be deterministic.
  const std::size_t cost = kNodeBaseCost + node.rec.client_payload.size() +
                           node.rec.server_payload.size();
  stats_.bytes_used += cost - node.cost;
  node.cost = cost;
  stats_.peak_bytes = std::max(stats_.peak_bytes, stats_.bytes_used);
}

void FlowCache::publish_gauges() {
  flows_gauge_->set(static_cast<std::int64_t>(stats_.active_flows));
  bytes_gauge_->set(static_cast<std::int64_t>(stats_.bytes_used));
  peak_flows_gauge_->record_max(static_cast<std::int64_t>(stats_.peak_flows));
}

void FlowCache::add(SimTime at, const PacketView& packet,
                    ProtocolLabel deep_label) {
  if (!packet.ipv4 || !packet.has_transport()) return;
  ++stats_.packets;

  expire(at);

  FlowKey forward;
  forward.client_ip = packet.ipv4->src;
  forward.server_ip = packet.ipv4->dst;
  forward.client_port = *packet.src_port();
  forward.server_port = *packet.dst_port();
  forward.protocol = packet.ipv4->protocol;

  FlowKey reverse = forward;
  std::swap(reverse.client_ip, reverse.server_ip);
  std::swap(reverse.client_port, reverse.server_port);

  bool from_client = true;
  std::uint32_t index = find(forward);
  if (index == kNil) {
    index = find(reverse);
    if (index != kNil) from_client = false;
  }

  if (index != kNil && config_.established_timeout.us() > 0 &&
      at - nodes_[index].rec.first_seen >= config_.established_timeout) {
    // Lifetime cap: emit the long-lived flow and start a fresh record with
    // this packet as the initiator.
    evict(index, PruneReason::kEstablished);
    index = kNil;
    from_client = true;
  }

  if (index == kNil) {
    while (config_.max_flows != 0 && stats_.active_flows >= config_.max_flows &&
           lru_tail_ != kNil) {
      evict(lru_tail_, PruneReason::kExcess);
    }
    index = create(at, from_client ? forward : reverse);
  }

  Node& node = nodes_[index];
  FlowRecord& rec = node.rec;
  rec.last_seen = at;
  ++rec.packets;
  if (from_client) {
    ++rec.client_packets;
  } else {
    ++rec.server_packets;
  }
  rec.bytes += packet.eth.payload.size() + 14;
  if (packet.tcp) {
    const TcpFlags f = packet.tcp->flags;
    rec.tcp_flags_seen.fin |= f.fin;
    rec.tcp_flags_seen.syn |= f.syn;
    rec.tcp_flags_seen.rst |= f.rst;
    rec.tcp_flags_seen.psh |= f.psh;
    rec.tcp_flags_seen.ack |= f.ack;
  }
  const BytesView payload = packet.app_payload();
  if (!payload.empty()) {
    // First non-empty payload per direction, copied: the view dies with the
    // delivery event, the record does not.
    if (from_client && rec.client_payload.empty()) {
      rec.client_payload.assign(payload.begin(), payload.end());
      rec.client_label = deep_label;
      recost(index);
    } else if (!from_client && rec.server_payload.empty()) {
      rec.server_payload.assign(payload.begin(), payload.end());
      rec.server_label = deep_label;
      recost(index);
    }
  }

  touch(index);
  enforce_memcap(index);
  publish_gauges();
}

void FlowCache::flush() {
  std::vector<std::uint32_t> live;
  live.reserve(stats_.active_flows);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].in_use) live.push_back(i);
  }
  std::sort(live.begin(), live.end(), [&](std::uint32_t a, std::uint32_t b) {
    return nodes_[a].seq < nodes_[b].seq;
  });
  for (const std::uint32_t i : live) evict(i, PruneReason::kFlush);
  publish_gauges();
}

void FlowCache::reset() {
  flush();
  // flush() already unlinked every node into the free list; node reuse order
  // is unobservable (bucket-chain position never affects emitted records),
  // so a recycled cache reproduces a fresh one's output exactly.
  stats_ = FlowCacheStats{};
  next_seq_ = 0;
  publish_gauges();
}

}  // namespace roomnet
