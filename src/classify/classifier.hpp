// Two independent traffic classifiers plus the hybrid the pipeline actually
// uses, mirroring §3.5/Appendix C.2:
//
// * SpecClassifier ("tshark-like"): packet-header and well-known-port
//   driven. Its characteristic failures, reproduced here by construction:
//   - unicast SSDP *responses* form flows whose server-side port is the
//     searcher's ephemeral port, so a port table sees nothing and emits
//     generic "transport-layer traffic" — the paper's dominant tshark error;
//   - its TP-Link dissector triggers on any UDP payload beginning with the
//     TPLINK-SHP first ciphertext byte (0xd0 = '{' ^ 171), over-labeling
//     unknown vendor beacons as TPLINK_SHP.
//
// * DeepClassifier ("nDPI-like"): payload-signature and behavior driven.
//   Its characteristic failures:
//   - SSDP M-SEARCH flows targeting the InternetGatewayDevice service match
//     a CiscoVPN signature (the paper: "nDPI incorrectly identified a small
//     fraction of SSDP flows as CiscoVPN traffic");
//   - EAPOL L2 frames from game consoles labeled AmazonAWS ("other local
//     traffic generated by the Nintendo Switch (EAPOL layer 2 traffic) as
//     AmazonAWS");
//   - RTP on UDP 10000-10010 (Google control/sync) labeled STUN by BOTH
//     classifiers (Appendix C.2's Google-device misclassification).
//
// * HybridClassifier: deep-first with manual correction rules — the method
//   the paper selected after cross-validation.
#pragma once

#include <optional>

#include "capture/flow.hpp"
#include "classify/label.hpp"
#include "netcore/packet_view.hpp"

namespace roomnet {

/// Interface: classify a single packet (L2/L3 traffic) or a whole flow.
/// A packet is the PacketView that decode_frame_view() makes of a frame, so
/// it is classified in place over the frame's bytes.
class Classifier {
 public:
  virtual ~Classifier() = default;
  [[nodiscard]] virtual ProtocolLabel classify_packet(const PacketView& packet) const = 0;
  [[nodiscard]] virtual ProtocolLabel classify_flow(const Flow& flow) const = 0;
};

class SpecClassifier final : public Classifier {
 public:
  [[nodiscard]] ProtocolLabel classify_packet(const PacketView& packet) const override;
  [[nodiscard]] ProtocolLabel classify_flow(const Flow& flow) const override;
};

class DeepClassifier final : public Classifier {
 public:
  [[nodiscard]] ProtocolLabel classify_packet(const PacketView& packet) const override;
  [[nodiscard]] ProtocolLabel classify_flow(const Flow& flow) const override;
};

/// Deep-first, with manual rules fixing the documented deep errors and
/// falling back to the spec classifier for flows deep cannot name.
class HybridClassifier final : public Classifier {
 public:
  [[nodiscard]] ProtocolLabel classify_packet(const PacketView& packet) const override;
  [[nodiscard]] ProtocolLabel classify_flow(const Flow& flow) const override;

 private:
  SpecClassifier spec_;
  DeepClassifier deep_;
};

/// The three views of one frame (§3.5): `spec` and `deep` are what
/// SpecClassifier and DeepClassifier say of the packet, and `hybrid` is
/// what HybridClassifier says — the deep label with the manual corrections,
/// the spec label its fallback. Stage 3 classifies each local frame once
/// into this record and every per-packet builder reads it.
struct FrameLabels {
  ProtocolLabel spec = ProtocolLabel::kUnknown;
  ProtocolLabel deep = ProtocolLabel::kUnknown;
  ProtocolLabel hybrid = ProtocolLabel::kUnknown;
};

/// All three labels of `packet`, each equal to its classifier's
/// classify_packet: the hybrid applies the same rules function to the deep
/// and spec labels computed here.
[[nodiscard]] FrameLabels classify_frame(const PacketView& packet);

}  // namespace roomnet
