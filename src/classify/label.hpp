// Protocol labels used across the pipeline. The set mirrors the axes of
// Figure 2 (protocol prevalence) and Figure 3 (classifier cross-validation),
// including the *wrong* labels the real tools emit (CiscoVPN, AmazonAWS,
// generic transport) so the disagreement analysis can be reproduced.
#pragma once

#include <cstdint>
#include <string>

namespace roomnet {

/// One byte wide, so a flow record carries a label within its padding
/// (capture/flow.hpp).
enum class ProtocolLabel : std::uint8_t {
  // Link/network layer
  kArp,
  kEapol,
  kXidLlc,
  kIcmp,
  kIcmpv6,
  kIgmp,
  kUnknownL3,
  // Discovery & management
  kDhcp,
  kDhcpv6,
  kMdns,
  kDns,
  kSsdp,
  kNetbios,
  kCoap,
  // Application
  kHttp,
  kTls,
  kTplinkShp,
  kTuyaLp,
  kStun,
  kRtp,
  kTelnet,
  kMatter,
  // Fallbacks
  kGenericTcp,   // tshark's "transport-layer traffic" (TCP)
  kGenericUdp,   // tshark's "transport-layer traffic" (UDP)
  kUnknown,
  // Known-wrong labels emitted by the deep classifier (Appendix C.2)
  kCiscoVpn,
  kAmazonAws,
};

std::string to_string(ProtocolLabel label);

/// True for the discovery-protocol subset §5.1 analyzes.
bool is_discovery_protocol(ProtocolLabel label);

}  // namespace roomnet
