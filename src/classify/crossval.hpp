// Classifier cross-validation (Appendix C.2 / Figure 3): run the spec and
// deep classifiers over the same packets+flows and tabulate agreement,
// disagreement, and the confusion matrix between their label vocabularies.
// StreamAnalyzer drives the fold: every local packet, then every flow as the
// FlowCache completes it.
#pragma once

#include <map>
#include <utility>

#include "capture/flow.hpp"
#include "classify/classifier.hpp"

namespace roomnet {

struct CrossValidation {
  /// (spec label, deep label) -> count.
  std::map<std::pair<ProtocolLabel, ProtocolLabel>, std::size_t> matrix;
  std::size_t total = 0;
  std::size_t agreed = 0;
  std::size_t disagreed = 0;       // both labeled, different labels
  std::size_t neither_labeled = 0; // both generic/unknown
  std::size_t spec_labeled = 0;    // spec produced a non-generic label
  std::size_t deep_labeled = 0;

  [[nodiscard]] double agreement_rate() const {
    return total == 0 ? 0 : static_cast<double>(agreed) / static_cast<double>(total);
  }
  [[nodiscard]] double disagreement_rate() const {
    return total == 0 ? 0 : static_cast<double>(disagreed) / static_cast<double>(total);
  }
  [[nodiscard]] double unlabeled_rate() const {
    return total == 0 ? 0
                      : static_cast<double>(neither_labeled) / static_cast<double>(total);
  }
};

/// True when a label names a concrete protocol (vs generic/unknown bins).
bool is_concrete_label(ProtocolLabel label);

/// Incremental fold: feed packets as they occur and flows as they complete,
/// in any interleaving. Every CrossValidation field is an additive count
/// (keyed at most by label pair), so the tabulation does not depend on how
/// packets and flows interleave.
class CrossValidator {
 public:
  void on_packet(const PacketView& packet) { on_packet(classify_frame(packet)); }
  /// Tabulates a packet's spec and deep labels.
  void on_packet(const FrameLabels& labels);
  void on_flow(const Flow& flow);
  [[nodiscard]] CrossValidation finish() { return std::move(cv_); }

 private:
  SpecClassifier spec_;
  DeepClassifier deep_;
  CrossValidation cv_;
};

}  // namespace roomnet
