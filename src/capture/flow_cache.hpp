// Bounded-memory flow cache, the one flow assembler (snort3's flow_cache is
// the model): a hash-keyed table of *active* flows behind a memcap, with an
// intrusive LRU list, idle/lifetime timeouts, per-reason prune accounting,
// and per-proto flow counters. The cache keeps O(1) state per active flow —
// a condensed FlowRecord — and *emits* each record downstream the moment
// the flow completes (eviction or final flush), so memory is O(active
// flows) regardless of run length.
//
// Determinism contract: add() and every eviction it triggers run on the sim
// thread in event order, and flush() emits survivors in flow-creation order.
// With all eviction knobs at their defaults (off), every 5-tuple seen is
// exactly one record, emitted at the final flush (DESIGN.md §12).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "capture/flow.hpp"
#include "netcore/packet_view.hpp"
#include "netcore/time.hpp"

namespace roomnet {

namespace telemetry {
class Counter;
class Gauge;
class Histogram;
}  // namespace telemetry

/// Why a flow left the cache. kFlush is the normal end-of-run path; the
/// other reasons only fire when the corresponding FlowCacheConfig knob is
/// armed.
enum class PruneReason : std::uint8_t {
  kIdle = 0,         // no packet for idle_timeout
  kEstablished = 1,  // alive longer than established_timeout (lifetime cap)
  kMemcap = 2,       // cache bytes over memcap_bytes, LRU victim
  kExcess = 3,       // flow count at max_flows, LRU victim for a new flow
  kFlush = 4,        // flush(): end of capture
};
inline constexpr std::size_t kPruneReasonCount = 5;

[[nodiscard]] const char* to_string(PruneReason reason);

/// Condensed, owning summary of one completed flow: everything the
/// downstream consumers (flow classification, flow counts) read from the
/// flow's packets, in O(1) space — counts, times, and the first non-empty
/// payload in each direction (copied out of the capture buffer, since the
/// cache outlives any single delivery event).
struct FlowRecord {
  FlowKey key;
  SimTime first_seen;
  SimTime last_seen;
  std::uint64_t packets = 0;
  std::uint64_t client_packets = 0;
  std::uint64_t server_packets = 0;
  std::uint64_t bytes = 0;  // full frame bytes, both directions
  /// First non-empty transport payload per direction (owned copies).
  Bytes client_payload;
  Bytes server_payload;
  /// Union of every TCP flag observed (zero-initialized for UDP).
  TcpFlags tcp_flags_seen;

  /// Synthesizes a minimal Flow over this record's payload copies so
  /// the Classifier::classify_flow implementations apply unchanged: key,
  /// non-empty packet list, and first_client/server_payload() all agree
  /// with the flow's full packet sequence. The returned Flow's payload
  /// views alias this record — classify before dropping it.
  [[nodiscard]] Flow to_flow() const;
};

struct FlowCacheConfig {
  /// Active-flow ceiling; inserting past it evicts the LRU flow (kExcess).
  /// 0 = unbounded.
  std::size_t max_flows = 0;
  /// Byte budget for all per-flow state (node + payload copies). When an
  /// add() pushes usage past it, LRU flows are evicted (kMemcap) until back
  /// under — the flow being updated is never its own victim. 0 = unbounded.
  std::size_t memcap_bytes = 0;
  /// Evict a flow not touched for this long (checked against the LRU tail on
  /// every add, so eviction happens in event order). Zero = disabled.
  SimTime idle_timeout{};
  /// Hard lifetime cap: a flow older than this is emitted on its next packet
  /// and a fresh record starts (long-lived chatty flows cannot pin payload
  /// state forever). Zero = disabled.
  SimTime established_timeout{};
};

struct FlowCacheStats {
  std::uint64_t flows_created = 0;
  std::uint64_t tcp_flows = 0;  // created, by transport
  std::uint64_t udp_flows = 0;
  std::uint64_t packets = 0;  // TCP/UDP packets folded into the cache
  std::array<std::uint64_t, kPruneReasonCount> prunes{};
  std::size_t active_flows = 0;
  std::size_t bytes_used = 0;
  std::size_t peak_flows = 0;
  std::size_t peak_bytes = 0;

  [[nodiscard]] std::uint64_t prunes_total() const {
    std::uint64_t total = 0;
    for (const std::uint64_t n : prunes) total += n;
    return total;
  }
};

class FlowCache {
 public:
  /// Downstream consumer of completed flows. Invoked synchronously from
  /// add()/flush() on the sim thread; the record reference is valid only for
  /// the duration of the call.
  using Sink = std::function<void(const FlowRecord&, PruneReason)>;

  explicit FlowCache(FlowCacheConfig config = {}, Sink sink = {});

  /// Folds one decoded packet; ignores non-IPv4/non-TCP/UDP. May emit
  /// evicted FlowRecords to the sink (timeouts first, then memcap/excess
  /// victims) before returning.
  void add(SimTime at, const PacketView& packet);

  /// Emits every remaining flow (reason kFlush) in flow-creation order and
  /// empties the cache. Idempotent.
  void flush();

  /// flush() + zeroed statistics and sequence counter: a recycled cache
  /// (fleet household contexts) starts its next capture indistinguishable
  /// from a fresh one, while the node pool, free list, and bucket array keep
  /// their allocations.
  void reset();

  [[nodiscard]] const FlowCacheStats& stats() const { return stats_; }
  [[nodiscard]] const FlowCacheConfig& config() const { return config_; }
  /// Retained allocations: nodes in the pool (live + free) and hash buckets.
  /// Neither shrinks on flush()/reset(), so on a recycled cache both track
  /// the largest capture's high-water mark.
  [[nodiscard]] std::size_t node_capacity() const { return nodes_.size(); }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  /// Completed flows so far: prunes of every reason, including flush.
  [[nodiscard]] std::uint64_t flows_completed() const {
    return stats_.prunes_total();
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Fixed per-flow accounting overhead (node + bookkeeping) charged against
  /// memcap_bytes on top of the owned payload copies.
  static constexpr std::size_t kNodeBaseCost = 256;

  struct Node {
    FlowRecord rec;
    std::uint64_t seq = 0;  // creation order, for deterministic flush
    std::uint32_t bucket = 0;
    std::uint32_t bucket_next = kNil;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    std::size_t cost = 0;  // bytes charged against memcap
    bool in_use = false;
  };

  [[nodiscard]] std::uint32_t find(const FlowKey& key) const;
  std::uint32_t create(SimTime at, const FlowKey& key);
  void touch(std::uint32_t index);  // move to LRU head
  void evict(std::uint32_t index, PruneReason reason);
  void expire(SimTime at);  // timeout sweep over the LRU tail
  void enforce_memcap(std::uint32_t protect);
  void recost(std::uint32_t index);
  void publish_gauges();

  FlowCacheConfig config_;
  Sink sink_;
  std::vector<std::uint32_t> buckets_;  // head node index per bucket, kNil-
  std::uint32_t bucket_mask_ = 0;       // terminated chains; size power of 2
  std::deque<Node> nodes_;              // index-stable node pool
  std::vector<std::uint32_t> free_;     // recycled node indices
  std::uint32_t lru_head_ = kNil;       // most recently touched
  std::uint32_t lru_tail_ = kNil;       // least recently touched
  std::uint64_t next_seq_ = 0;
  FlowCacheStats stats_;

  // roomnet_flow_cache_* instruments, resolved once (registry lookups take a
  // lock; add() must not).
  telemetry::Gauge* flows_gauge_;
  telemetry::Gauge* bytes_gauge_;
  telemetry::Gauge* memcap_gauge_;
  telemetry::Gauge* peak_flows_gauge_;
  telemetry::Counter* tcp_flows_counter_;
  telemetry::Counter* udp_flows_counter_;
  std::array<telemetry::Counter*, kPruneReasonCount> prune_counters_{};
  telemetry::Histogram* age_histogram_;
};

}  // namespace roomnet
