// roomnet::stream — stage 3 of the pipeline, and the one stage-3 fold in
// the repo. A StreamAnalyzer folds each local packet into the five passive
// analyses (protocol use, comm graph, exposure, cross-validation, response
// correlation) the moment it is seen and keeps per-flow state behind a
// bounded FlowCache — memory is O(active flows), independent of run length.
// Every consumer feeds it the same way: the pipeline and the paper benches
// from the packet tap, analyze_pcap and perfbench's replay from a pcap read
// loop.
//
// Determinism: on_packet runs on the sim thread in event order (it is called
// straight from the packet tap), every builder fold is order-canonical, and
// the cache flush emits surviving flows in creation order — so the results
// are byte-identical at any thread count. With the default non-evicting
// StreamConfig every flow completes at the final flush, whole. Arming an
// eviction knob (memcap/max_flows/timeouts) trades that for bounded memory:
// long flows may split and payload-less records may classify generically.
// DESIGN.md §12 spells out the contract.
#pragma once

#include <cstddef>
#include <functional>
#include <set>

#include "analysis/exposure.hpp"
#include "analysis/overview.hpp"
#include "capture/flow_cache.hpp"
#include "classify/crossval.hpp"
#include "classify/response.hpp"

namespace roomnet::stream {

/// Flow-cache bounds for stage 3. The default (everything 0 / disabled)
/// never evicts: every flow survives to the final flush. Setting any knob
/// arms eviction.
struct StreamConfig {
  std::size_t max_flows = 0;
  std::size_t memcap_bytes = 0;
  SimTime idle_timeout{};
  SimTime established_timeout{};

  /// True when any eviction knob is armed — i.e. when results may
  /// legitimately differ from a non-evicting run (and the run's config
  /// digest says so; see pipeline_config_digest).
  [[nodiscard]] bool evicting() const {
    return max_flows != 0 || memcap_bytes != 0 || idle_timeout.us() > 0 ||
           established_timeout.us() > 0;
  }

  [[nodiscard]] FlowCacheConfig cache_config() const {
    return FlowCacheConfig{max_flows, memcap_bytes, idle_timeout,
                           established_timeout};
  }
};

/// Everything stage 3 produces, plus the cache's own accounting.
struct StreamResults {
  ProtocolUsage usage;
  CommGraph graph;
  CrossValidation crossval;
  ResponseStats responses;
  ExposureMatrix exposure;
  /// Completed FlowRecords (== the distinct 5-tuples seen when never
  /// evicting).
  std::size_t flows = 0;
  FlowCacheStats cache;
};

/// Single-owner streaming consumer: install on_packet() as the packet tap
/// body, call finish() once at the classify stage. finish() moves the
/// builders' results out, so on_packet() or finish() after finish() throws
/// std::logic_error. Not thread-safe — both run on the sim thread, which is
/// what keeps eviction order deterministic.
class StreamAnalyzer {
 public:
  StreamAnalyzer(const StreamConfig& config, std::set<MacAddress> population);

  /// Folds one local packet into every per-packet analysis and the flow
  /// cache. The views in `packet` are only borrowed for the call. Throws
  /// std::logic_error after finish().
  void on_packet(SimTime at, const PacketView& packet);

  /// Flushes the cache (remaining flows complete in creation order) and
  /// returns every analysis result. Throws std::logic_error when called a
  /// second time.
  [[nodiscard]] StreamResults finish();

  /// Secondary consumer of completed flows (the watch layer): invoked after
  /// the analyzer's own fold, same sim-thread/creation-order guarantees as
  /// the cache sink. Install before the first packet.
  void set_flow_observer(
      std::function<void(const FlowRecord&, PruneReason)> observer) {
    flow_observer_ = std::move(observer);
  }

  [[nodiscard]] const FlowCache& cache() const { return cache_; }
  [[nodiscard]] std::size_t packets() const { return packets_; }

 private:
  void on_flow(const FlowRecord& record, PruneReason reason);

  ProtocolUsageBuilder usage_;
  CommGraphBuilder graph_;
  ExposureBuilder exposure_;
  CrossValidator crossval_;
  ResponseCorrelator responses_;
  std::size_t flows_completed_ = 0;
  std::size_t packets_ = 0;
  bool finished_ = false;
  std::function<void(const FlowRecord&, PruneReason)> flow_observer_;
  FlowCache cache_;  // last member: its sink captures `this`
};

}  // namespace roomnet::stream
