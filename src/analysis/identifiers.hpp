// Identifier extraction from protocol payload text — the §6.3 method:
//   (1) possessive display names ("REDACTED's Room": word + "'s" + word),
//   (2) standard UUID patterns (RFC 4122 textual form),
//   (3) MAC addresses (with/without separators), validated against a known
//       OUI to cut false positives, exactly as IoT Inspector does.
// Used by the household-fingerprinting entropy analysis, the app
// instrumentation (what did this app harvest?), and the exposure matrix.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "netcore/address.hpp"

namespace roomnet {

/// The "C" locale's isxdigit set as a plain range test: nothing in the
/// program calls setlocale, and this avoids a library call per character.
/// The one hex test of every identifier scan.
constexpr bool is_hex_char(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

enum class IdentifierType { kName, kUuid, kMacAddress };

std::string to_string(IdentifierType type);

struct ExtractedIdentifier {
  IdentifierType type = IdentifierType::kName;
  std::string value;

  friend bool operator==(const ExtractedIdentifier&,
                         const ExtractedIdentifier&) = default;
  friend auto operator<=>(const ExtractedIdentifier&,
                          const ExtractedIdentifier&) = default;
};

/// Possessive names: an alphabetic word followed by "'s " and another word
/// ("Jane's Room", "REDACTED's Roku Express"). Returns the full phrase.
std::vector<std::string> extract_possessive_names(std::string_view text);

/// Canonical 8-4-4-4-12 UUIDs (case-insensitive).
std::vector<std::string> extract_uuids(std::string_view text);

/// MAC addresses in colon/dash/bare-hex forms. When `expected_oui` is given,
/// only MACs whose first three octets match are returned (IoT Inspector's
/// false-positive filter, §6.3).
std::vector<std::string> extract_macs(std::string_view text,
                                      std::optional<std::uint32_t> expected_oui
                                      = std::nullopt);

/// All three extractors over one payload.
std::vector<ExtractedIdentifier> extract_identifiers(
    std::string_view text,
    std::optional<std::uint32_t> expected_oui = std::nullopt);

/// Which identifier types a set of payloads exposes: a device's, or a crowd
/// product class's, Table 2 row.
struct ExposureClass {
  bool name = false;  // user first name in the friendly name
  bool uuid = false;
  bool mac = false;

  [[nodiscard]] int count() const { return name + uuid + mac; }
  friend auto operator<=>(const ExposureClass&, const ExposureClass&) = default;
};

/// The identifier-type combination `ids` exposes (a device's Table 2 row).
ExposureClass exposure_class(const std::set<ExtractedIdentifier>& ids);

/// The §6.3 harvest of one payload from a device with `oui` into `out`:
/// OUI-checked identifiers plus every separated-form MAC, since degenerate
/// constant MACs fail the OUI check yet still count as exposed values.
void harvest_identifiers(std::string_view text, std::uint32_t oui,
                         std::set<ExtractedIdentifier>& out);

}  // namespace roomnet
