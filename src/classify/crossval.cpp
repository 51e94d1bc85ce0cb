#include "classify/crossval.hpp"

#include "exec/parallel.hpp"
#include "exec/task_pool.hpp"

namespace roomnet {

namespace {

void record(CrossValidation& cv, ProtocolLabel s, ProtocolLabel d) {
  ++cv.total;
  ++cv.matrix[{s, d}];
  const bool s_concrete = is_concrete_label(s);
  const bool d_concrete = is_concrete_label(d);
  if (s_concrete) ++cv.spec_labeled;
  if (d_concrete) ++cv.deep_labeled;
  if (s == d && s_concrete) {
    ++cv.agreed;
  } else if (s_concrete && d_concrete) {
    ++cv.disagreed;
  } else if (!s_concrete && !d_concrete) {
    ++cv.neither_labeled;
  } else {
    ++cv.disagreed;  // one tool labeled, the other could not
  }
}

/// Every field is a count keyed (at most) by label pair, so summing the
/// chunk partials in chunk order reproduces the sequential tabulation.
void merge(CrossValidation& into, CrossValidation&& part) {
  for (const auto& [key, count] : part.matrix) into.matrix[key] += count;
  into.total += part.total;
  into.agreed += part.agreed;
  into.disagreed += part.disagreed;
  into.neither_labeled += part.neither_labeled;
  into.spec_labeled += part.spec_labeled;
  into.deep_labeled += part.deep_labeled;
}

}  // namespace

void CrossValidator::on_packet(const PacketView& packet) {
  record(cv_, spec_.classify_packet(packet), deep_.classify_packet(packet));
}

void CrossValidator::on_flow(const Flow& flow) {
  record(cv_, spec_.classify_flow(flow), deep_.classify_flow(flow));
}

bool is_concrete_label(ProtocolLabel label) {
  switch (label) {
    case ProtocolLabel::kUnknown:
    case ProtocolLabel::kUnknownL3:
    case ProtocolLabel::kGenericTcp:
    case ProtocolLabel::kGenericUdp:
      return false;
    default:
      return true;
  }
}

CrossValidation cross_validate(const std::vector<Flow>& flows,
                               const CaptureStore& capture,
                               exec::TaskPool& pool) {
  // The classifiers are stateless; one instance is shared read-only by all
  // workers. Flows and packets shard independently; their partial counts
  // merge in index order, flows first (the historical tabulation order).
  const SpecClassifier spec;
  const DeepClassifier deep;

  CrossValidation cv = exec::parallel_reduce(
      pool, flows.size(), CrossValidation{},
      [&](CrossValidation& acc, std::size_t i) {
        record(acc, spec.classify_flow(flows[i]), deep.classify_flow(flows[i]));
      },
      merge);
  merge(cv, exec::parallel_reduce(
                pool, capture.size(), CrossValidation{},
                [&](CrossValidation& acc, std::size_t i) {
                  const PacketView packet = capture.packet(i);
                  record(acc, spec.classify_packet(packet),
                         deep.classify_packet(packet));
                },
                merge));
  return cv;
}

CrossValidation cross_validate(const std::vector<Flow>& flows,
                               const CaptureStore& capture) {
  exec::TaskPool serial(1);
  return cross_validate(flows, capture, serial);
}

}  // namespace roomnet
