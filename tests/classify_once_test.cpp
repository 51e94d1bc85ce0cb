// The stage-3 fold's two classification shortcuts, checked against the
// classifiers they stand in for over every local frame of the committed
// capture: classify_frame() against each classifier's own classify_packet,
// and the deep labels a FlowRecord carries against classify_flow decoding
// the stored payloads itself — with the cache never evicting and with each
// eviction knob armed.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "capture/filter.hpp"
#include "capture/flow_cache.hpp"
#include "classify/classifier.hpp"
#include "netcore/pcap.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet {
namespace {

struct LocalFrame {
  SimTime at;
  PacketView view;
};

/// The capture's local frames, as every stage-3 consumer sees them. The
/// views borrow the records, which live as long as the process.
const std::vector<LocalFrame>& local_frames() {
  static const std::vector<PcapRecord> records = [] {
    auto read = read_pcap_file(ROOMNET_QUICKSTART_PCAP);
    return read ? std::move(*read) : std::vector<PcapRecord>{};
  }();
  static const std::vector<LocalFrame> frames = [] {
    std::vector<LocalFrame> out;
    const LocalFilter filter;
    for (const PcapRecord& record : records) {
      const auto view = decode_frame_view(record.frame);
      if (view && filter.matches(*view)) out.push_back({record.timestamp, *view});
    }
    return out;
  }();
  return frames;
}

std::uint64_t uncarried_payloads() {
  return telemetry::Registry::global()
      .counter("roomnet_classify_flow_uncarried_payloads_total")
      .value();
}

TEST(FrameLabels, EqualEachClassifiersOwnLabelOnEveryLocalFrame) {
  const auto& frames = local_frames();
  ASSERT_GT(frames.size(), 10000u);
  const SpecClassifier spec;
  const DeepClassifier deep;
  const HybridClassifier hybrid;
  std::size_t mismatches = 0;
  std::size_t corrected = 0;    // hybrid differs from deep
  std::size_t spec_filled = 0;  // hybrid is the spec fallback
  std::set<ProtocolLabel> hybrids;
  for (const LocalFrame& frame : frames) {
    const FrameLabels labels = classify_frame(frame.view);
    if (labels.spec != spec.classify_packet(frame.view) ||
        labels.deep != deep.classify_packet(frame.view) ||
        labels.hybrid != hybrid.classify_packet(frame.view))
      ++mismatches;
    if (labels.hybrid != labels.deep) ++corrected;
    if (labels.deep == ProtocolLabel::kUnknown &&
        labels.hybrid == labels.spec && labels.spec != labels.deep)
      ++spec_filled;
    hybrids.insert(labels.hybrid);
  }
  EXPECT_EQ(mismatches, 0u);
  // The corpus exercises the manual rules and the spec fallback, not only
  // the deep-equals-hybrid case.
  EXPECT_GT(corrected, 0u);
  EXPECT_GT(spec_filled, 0u);
  EXPECT_GE(hybrids.size(), 8u);
}

struct EvictionCase {
  const char* name;
  FlowCacheConfig config;
  PruneReason armed;
};

class CarriedFlowLabels : public ::testing::TestWithParam<EvictionCase> {};

TEST_P(CarriedFlowLabels, ClassifyFlowSameWithAndWithoutThem) {
  const EvictionCase& param = GetParam();
  const DeepClassifier deep;
  const HybridClassifier hybrid;
  std::size_t records = 0;
  std::size_t carried = 0;
  std::size_t mismatches = 0;
  FlowCache cache(param.config, [&](const FlowRecord& record, PruneReason) {
    ++records;
    const Flow with = record.to_flow();
    EXPECT_EQ(with.first_client_label, record.client_label);
    EXPECT_EQ(with.first_server_label, record.server_label);
    Flow without = with;
    without.first_client_label = kNoCarriedLabel;
    without.first_server_label = kNoCarriedLabel;
    if (with.first_client_label != kNoCarriedLabel) ++carried;
    // A label is carried exactly when its payload copy is.
    EXPECT_EQ(record.client_label != kNoCarriedLabel,
              !record.client_payload.empty());
    EXPECT_EQ(record.server_label != kNoCarriedLabel,
              !record.server_payload.empty());
    if (deep.classify_flow(with) != deep.classify_flow(without) ||
        hybrid.classify_flow(with) != hybrid.classify_flow(without))
      ++mismatches;
  });
  for (const LocalFrame& frame : local_frames())
    cache.add(frame.at, frame.view, deep.classify_packet(frame.view));
  cache.flush();

  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(records, 100u);
  EXPECT_GT(carried, 0u);
  EXPECT_GT(cache.stats().prunes[static_cast<std::size_t>(param.armed)], 0u)
      << "the " << param.name << " knob never fired";
}

INSTANTIATE_TEST_SUITE_P(
    EveryEvictionKnob, CarriedFlowLabels,
    ::testing::Values(
        EvictionCase{"default", FlowCacheConfig{}, PruneReason::kFlush},
        EvictionCase{"max_flows", FlowCacheConfig{8, 0, {}, {}},
                     PruneReason::kExcess},
        EvictionCase{"memcap_bytes", FlowCacheConfig{0, 4096, {}, {}},
                     PruneReason::kMemcap},
        EvictionCase{"idle_timeout",
                     FlowCacheConfig{0, 0, SimTime::from_seconds(2), {}},
                     PruneReason::kIdle},
        EvictionCase{"established_timeout",
                     FlowCacheConfig{0, 0, {}, SimTime::from_seconds(10)},
                     PruneReason::kEstablished}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(CarriedFlowLabels, UncarriedPayloadsAreCounted) {
  // A cache fed without labels leaves classify_flow to decode each stored
  // payload, and the counter says how many; fed with labels it decodes none.
  const DeepClassifier deep;
  std::vector<FlowRecord> kept;
  const auto fold = [&](bool with_labels) {
    kept.clear();
    FlowCache cache(FlowCacheConfig{}, [&](const FlowRecord& record,
                                           PruneReason) {
      kept.push_back(record);
    });
    for (const LocalFrame& frame : local_frames()) {
      if (with_labels)
        cache.add(frame.at, frame.view, deep.classify_packet(frame.view));
      else
        cache.add(frame.at, frame.view);
    }
    cache.flush();
    const std::uint64_t before = uncarried_payloads();
    for (const FlowRecord& record : kept) (void)deep.classify_flow(record.to_flow());
    return uncarried_payloads() - before;
  };
  EXPECT_EQ(fold(true), 0u);
  const std::uint64_t decoded = fold(false);
  std::uint64_t with_payload = 0;
  for (const FlowRecord& record : kept)
    with_payload += record.client_payload.empty() ? 0 : 1;
  // Every non-empty client payload is decoded; a server payload only when
  // the client's gave no concrete label.
  EXPECT_GE(decoded, with_payload);
  EXPECT_GT(with_payload, 0u);
}

}  // namespace
}  // namespace roomnet
