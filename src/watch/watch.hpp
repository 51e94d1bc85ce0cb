// roomnet::watch — in-network runtime observability for the simulated home.
//
// The Watcher is the network's flight recorder: fed every local packet from
// the Switch tap (plus fault verdicts, churn transitions, and completed
// flows), it derives typed NetEvents into one bounded ring per device and
// evaluates the alert-rule engine incrementally over the same signals. All
// entry points run on the sim thread in event order, so the merged timeline
// (events.jsonl, hashed into the RunManifest's "watch" stage) is
// byte-identical across thread counts; completed flows arrive from the
// stage-3 flow cache in creation order. DESIGN.md §14 is the full contract.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "capture/flow_cache.hpp"
#include "netcore/packet_view.hpp"
#include "sim/network.hpp"
#include "watch/events.hpp"
#include "watch/flat_map.hpp"
#include "watch/rules.hpp"

namespace roomnet {
namespace telemetry {
class Counter;
class Gauge;
}  // namespace telemetry
}  // namespace roomnet

namespace roomnet::watch {

struct WatchConfig {
  /// Master switch: disabled leaves the tap path untouched (no watcher, no
  /// "watch" manifest stage, no events.jsonl).
  bool enabled = true;
  /// Flight-recorder depth per device; the oldest event is overwritten and
  /// counted in `roomnet_watch_events_dropped_total`.
  std::size_t ring_capacity = 256;
  /// Alert rules (the grammar in rules.hpp); empty selects default_rules().
  std::string rules;
  /// Rule-engine evaluation cadence in sim time (absence checks, metric
  /// thresholds, rate-window resolution).
  SimTime tick = SimTime::from_seconds(30);
  /// Discovery queries (mDNS question / SSDP M-SEARCH) from one device
  /// within `burst_window` before a discovery_burst event is emitted.
  int burst_threshold = 3;
  SimTime burst_window = SimTime::from_seconds(5);
  /// Cap on the per-device scan-target and peer dedup sets.
  std::size_t max_tracked_per_device = 4096;

  friend bool operator==(const WatchConfig&, const WatchConfig&) = default;
  /// True for the stock config — the config digest only folds watch knobs
  /// when they deviate (keeping historical digests stable).
  [[nodiscard]] bool is_default() const { return *this == WatchConfig{}; }
};

/// Everything the watch stage hands back: the merged surviving timeline
/// (seq order), per-rule alert lifecycle counts, and the recorder's own
/// accounting.
struct WatchReport {
  std::vector<NetEvent> events;
  std::vector<AlertRuleSummary> alerts;
  std::uint64_t events_emitted = 0;
  /// Ring overwrites (events that did not survive to the report).
  std::uint64_t events_dropped = 0;
  std::uint64_t packets_seen = 0;
  std::uint64_t devices_tracked = 0;
};

class Watcher {
 public:
  explicit Watcher(const WatchConfig& config);
  Watcher(const Watcher&) = delete;
  Watcher& operator=(const Watcher&) = delete;

  /// Pre-registers a device label ("<vendor> <model>", "router", ...).
  /// Unregistered MACs auto-register with their MAC string as the label.
  /// Registered devices also join the absence-rule population, so a device
  /// that never transmits can still fire device_silent.
  void register_device(MacAddress mac, std::string label);
  /// Seeds the dns_new_resolver baseline (the router's resolver is known).
  void add_known_resolver(Ipv4Address ip);

  /// Tap body: derives packet events and feeds the rule engine. Views are
  /// borrowed for the call only.
  void on_packet(SimTime at, const PacketView& packet);
  /// Completed-flow signal (FlowCache sink order == creation order).
  void on_flow(const FlowRecord& record, PruneReason reason);
  /// Fault-verdict signal from the Switch fate tap (faulty runs only).
  void on_fate(SimTime at, MacAddress src, const Switch::FrameFate& fate,
               std::size_t frame_size);
  /// Churn transition from the ChurnDriver observer.
  void on_churn(SimTime at, MacAddress mac, const std::string& label,
                bool online);

  /// Final rule sweep + merged timeline. Call once, after the last signal.
  [[nodiscard]] WatchReport finish();

  [[nodiscard]] const WatchConfig& config() const { return config_; }
  /// The rule-parse error ("" when the config parsed clean). A broken rule
  /// config never breaks the run: the engine just starts with no rules.
  [[nodiscard]] const std::string& rule_error() const { return rule_error_; }

 private:
  struct DeviceState {
    std::string label;
    /// Sliding window of discovery-query timestamps.
    std::deque<SimTime> discovery;
    /// Suppression horizon: one burst event per window.
    SimTime burst_until;
    /// (dst_ip, dst_port) pairs already probed (scan_probe dedup); keyed
    /// (ip << 16 | port) + 1, value 1 once seen.
    FlatMap<char> probed;
    /// Unicast peers already seen (new_peer dedup); keyed mac + 1. These
    /// two are probed on (nearly) every tap packet, which is why they are
    /// flat sets and not std::set.
    FlatMap<char> peers;
    /// Most recent unicast destination: flows run in long same-peer bursts,
    /// so this skips the peers set probe on the tap path's common case.
    MacAddress last_peer;
    /// Cached RuleEngine::activity_slot(): the per-packet activity stamp is
    /// one store unless an absence instance is firing.
    SimTime* activity_slot = nullptr;
    std::deque<NetEvent> ring;
    std::uint64_t dropped = 0;
  };

  DeviceState& device(MacAddress mac);
  /// Stamps seq, sorts fields, counts, routes to the engine (non-alerts),
  /// and pushes into the owner's ring.
  void emit(NetEvent event);
  void emit_alert(SimTime at, const RuleEngine::Transition& transition);

  WatchConfig config_;
  std::string rule_error_;
  std::map<MacAddress, DeviceState> devices_;
  /// Per-packet device lookup (std::map nodes are stable and nothing is
  /// ever erased from devices_, so cached pointers stay valid). The map
  /// itself is only walked on first sight of a device.
  FlatMap<DeviceState*> device_index_;
  /// src IP -> MAC bindings for flow attribution (keys biased +1).
  FlatMap<MacAddress> ip_index_;
  std::uint64_t next_seq_ = 0;
  SimTime clock_;  // latest signal time (monotonic)
  std::uint64_t packets_ = 0;
  std::uint64_t emitted_ = 0;
  bool finished_ = false;
  std::unique_ptr<RuleEngine> engine_;

  // Pre-resolved instruments (registry lookups lock; the tap path must not).
  telemetry::Counter* events_counters_[kNetEventTypeCount] = {};
  telemetry::Counter* dropped_counter_ = nullptr;
  telemetry::Gauge* devices_gauge_ = nullptr;
  std::vector<telemetry::Counter*> fired_counters_;
  std::vector<telemetry::Counter*> resolved_counters_;
  /// Metric-rule source counters resolved once, with run-start epochs.
  std::map<std::string, std::pair<const telemetry::Counter*, std::uint64_t>>
      metric_sources_;
};

}  // namespace roomnet::watch
