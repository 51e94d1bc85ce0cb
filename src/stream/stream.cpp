#include "stream/stream.hpp"

#include <stdexcept>
#include <utility>

#include "proto/app.hpp"

namespace roomnet::stream {

StreamAnalyzer::StreamAnalyzer(const StreamConfig& config,
                               std::set<MacAddress> population)
    : graph_(std::move(population)),
      cache_(config.cache_config(),
             [this](const FlowRecord& record, PruneReason reason) {
               on_flow(record, reason);
             }) {}

void StreamAnalyzer::on_packet(SimTime at, const PacketView& packet) {
  if (finished_)
    throw std::logic_error("StreamAnalyzer::on_packet() after finish()");
  ++packets_;
  // One app-layer memo across the builders, for views that bring none, and
  // one classification of the frame for all of them.
  const AppScope app(packet);
  const FrameLabels labels = classify_frame(packet);
  usage_.on_packet(packet, labels);
  graph_.on_packet(packet, labels);
  exposure_.on_packet(packet);
  crossval_.on_packet(labels);
  responses_.on_packet(at, packet, labels);
  cache_.add(at, packet, labels.deep);
}

void StreamAnalyzer::on_flow(const FlowRecord& record, PruneReason reason) {
  ++flows_completed_;
  // The synthetic flow's payload views alias `record`, which outlives this
  // call — classify immediately, keep nothing.
  crossval_.on_flow(record.to_flow());
  if (flow_observer_) flow_observer_(record, reason);
}

StreamResults StreamAnalyzer::finish() {
  if (finished_)
    throw std::logic_error("StreamAnalyzer::finish() called twice");
  finished_ = true;
  cache_.flush();
  StreamResults results;
  results.usage = usage_.finish();
  results.graph = graph_.finish();
  results.exposure = exposure_.finish();
  results.crossval = crossval_.finish();
  results.responses = responses_.finish();
  results.flows = flows_completed_;
  results.cache = cache_.stats();
  return results;
}

}  // namespace roomnet::stream
