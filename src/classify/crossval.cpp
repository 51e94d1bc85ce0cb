#include "classify/crossval.hpp"

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

}  // namespace roomnet
