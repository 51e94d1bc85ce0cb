// roomnet::watch event model: the typed NetEvent record, its canonical
// one-line JSON serialization (events.jsonl), and the parse/diff helpers the
// `roomnet events` verbs and the determinism tests share.
//
// Determinism contract: events are emitted on the sim thread in event order,
// `seq` is the global emission index, and every serialized field is either
// an integer, an enum name, or a string built without any floating-point
// formatting — so the jsonl bytes (and the SHA-256 the manifest records for
// the "watch" stage) are identical across thread counts and pipeline modes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/time.hpp"

namespace roomnet::watch {

/// What happened on the wire. The taxonomy follows the paper's threat
/// characterization: lease/list events establish presence, discovery and
/// scan events are the reconnaissance signals (§5), TLS handshakes carry
/// the fingerprintable metadata (§6), churn/fault events record the
/// injected degradations, and alerts are the rule engine's verdicts.
enum class NetEventType : std::uint8_t {
  kDhcpLease = 0,
  kDnsQuery = 1,
  kDiscoveryBurst = 2,
  kScanProbe = 3,
  kNewPeer = 4,
  kTlsHandshake = 5,
  kChurn = 6,
  kFault = 7,
  kAlert = 8,
};
inline constexpr std::size_t kNetEventTypeCount = 9;

[[nodiscard]] const char* to_string(NetEventType type);
[[nodiscard]] std::optional<NetEventType> parse_event_type(
    std::string_view name);

enum class Severity : std::uint8_t {
  kInfo = 0,
  kNotice = 1,
  kWarning = 2,
  kCritical = 3,
};

[[nodiscard]] const char* to_string(Severity severity);
[[nodiscard]] std::optional<Severity> parse_severity(std::string_view name);

/// One timeline entry. `fields` carries the type-specific details as string
/// key/value pairs kept sorted by key (the serializer relies on it).
struct NetEvent {
  /// Global emission index, assigned on the sim thread in emission order —
  /// the canonical ordering and the diff anchor. Timestamps mostly track it
  /// but can trail where rule-engine ticks or flow completions catch up.
  std::uint64_t seq = 0;
  SimTime at;
  NetEventType type = NetEventType::kDnsQuery;
  Severity severity = Severity::kInfo;
  /// The device this event belongs to (timeline owner). The all-zero MAC is
  /// the network-wide pseudo-device (metric-sourced alerts).
  MacAddress device;
  std::string device_label;
  /// Flow back-reference, "proto src_ip:port>dst_ip:port"; empty when the
  /// event is not tied to one flow (churn, absence alerts, ...).
  std::string flow;
  /// Sorted type-specific detail fields.
  std::vector<std::pair<std::string, std::string>> fields;

  friend bool operator==(const NetEvent&, const NetEvent&) = default;
};

/// Canonical single-line JSON (no trailing newline).
[[nodiscard]] std::string to_json(const NetEvent& event);
/// `to_json` per event, one per line, each newline-terminated.
[[nodiscard]] std::string events_to_jsonl(const std::vector<NetEvent>& events);

[[nodiscard]] std::optional<NetEvent> parse_event(std::string_view json_line);
/// Whole-file parse; nullopt on the first malformed line.
[[nodiscard]] std::optional<std::vector<NetEvent>> parse_events_jsonl(
    std::string_view text);
[[nodiscard]] std::optional<std::vector<NetEvent>> load_events(
    const std::string& path);

/// SHA-256 hex of `events_to_jsonl` — the "watch" stage's manifest hash, so
/// `roomnet audit diff` catches a timeline divergence by name.
[[nodiscard]] std::string hash_events(const std::vector<NetEvent>& events);

/// First divergence between two event streams (the `roomnet events diff`
/// core). `equal` when both streams match event-for-event.
struct EventDiff {
  bool equal = true;
  /// Index into the streams where they first disagree (== the shorter
  /// stream's size when one is a prefix of the other).
  std::size_t index = 0;
  std::string detail;  // human-readable "what differs" line
};

[[nodiscard]] EventDiff diff_events(const std::vector<NetEvent>& a,
                                    const std::vector<NetEvent>& b);

}  // namespace roomnet::watch
