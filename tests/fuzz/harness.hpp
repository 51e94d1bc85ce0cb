// The fuzz harness inventory. Each entry point takes one arbitrary byte
// string and either returns 0 or dies (abort on a violated invariant,
// sanitizer report on UB) — the libFuzzer contract. The same entry points
// back three consumers:
//
//   * the fuzz_<name> executables built under -DROOMNET_FUZZ=ON (libFuzzer
//     when the compiler is clang, the standalone driver otherwise),
//   * the FuzzRegressions gtest, which replays every committed corpus file
//     through every harness in plain/ASan/TSan builds,
//   * scripts/check.sh --fuzz, which smokes each executable for a fixed
//     budget.
//
// Keep entries total: no input may hang, allocate unboundedly, or recurse
// past the stack. DESIGN.md §13 documents the per-harness invariants.
#pragma once

#include <cstddef>
#include <string_view>

#include "netcore/bytes.hpp"

namespace roomnet::fuzz {

// -- harness entry points (one per family member) ---------------------------

/// Contract: decode_frame_view on every input obeys
/// frame_contract_violation() below.
int fuzz_frame(BytesView data);
/// Round-trip: input-driven construction of every layer + payload message;
/// encode must decode, and re-encoding the decode must be a fixpoint. Layer
/// encoders and decoders must also match their reference copies.
int fuzz_roundtrip(BytesView data);
/// Structure-aware DNS/mDNS: raw decode, decode-encode idempotence, and
/// field-granularity mutations of a well-formed message (counts, label
/// lengths, compression pointers, rdlength).
int fuzz_dns(BytesView data);
/// Structure-aware DHCP: option TLV lengths, magic cookie, truncation.
int fuzz_dhcp(BytesView data);
/// Structure-aware SSDP/HTTP/UPnP-XML: header splicing and truncation.
int fuzz_ssdp(BytesView data);
/// Structure-aware TLS: record/handshake 16- and 24-bit lengths, cipher
/// suite counts, extension lengths, certificate fields.
int fuzz_tls(BytesView data);
/// Remaining payload decoders (CoAP, Tuya, TP-Link/JSON, NetBIOS, Matter,
/// RTP/STUN, DHCPv6): raw decode + idempotence.
int fuzz_payload(BytesView data);
/// FlowCache/StreamAnalyzer: replays input-framed records through the
/// streaming fold and asserts the cache's bound invariants.
int fuzz_stream(BytesView data);

/// The frame decode contract: nullptr when decode_frame_view(raw) keeps
/// every view inside the input and each layer inside its parent, has at most
/// one layer per level, matches the standalone decode of each layer's parent
/// payload, buckets wire_proto by the present layers, equals the reference
/// frame decoder (reference_frame_codecs.hpp) layer for layer, and has
/// app-layer accessors (proto/app.hpp) that agree with a direct decode of
/// the payload and memoize it; otherwise the clause that failed.
const char* frame_contract_violation(BytesView raw);

// -- registry ---------------------------------------------------------------

struct HarnessInfo {
  std::string_view name;  // corpus subdirectory + fuzz_<name> target name
  int (*entry)(BytesView);
};

/// Every harness above, in build order. Drives the regression-replay gtest
/// and the standalone driver's --list mode.
const HarnessInfo* harness_registry(std::size_t* count);

/// nullptr when `name` is unknown.
const HarnessInfo* find_harness(std::string_view name);

// -- shared plumbing --------------------------------------------------------

/// Abort with a message on a violated harness invariant (never use assert:
/// NDEBUG builds must keep the checks).
[[noreturn]] void fuzz_fail(const char* harness, const char* message);

#define ROOMNET_FUZZ_CHECK(cond, harness, message) \
  do {                                             \
    if (!(cond)) ::roomnet::fuzz::fuzz_fail(harness, message); \
  } while (0)

}  // namespace roomnet::fuzz
