#include "analysis/identifiers.hpp"

#include <cctype>

namespace roomnet {

std::string to_string(IdentifierType type) {
  switch (type) {
    case IdentifierType::kName: return "name";
    case IdentifierType::kUuid: return "UUID";
    case IdentifierType::kMacAddress: return "MAC";
  }
  return "?";
}

namespace {
bool is_word_char(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0;
}
// The "C" locale's isxdigit set as a plain range test: nothing in the
// program calls setlocale, and this avoids a library call per character.
bool is_hex_char(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}
}  // namespace

std::vector<std::string> extract_possessive_names(std::string_view text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i + 3 < text.size(); ++i) {
    if (text[i] != '\'') continue;
    if (i + 2 >= text.size() || text[i + 1] != 's' || text[i + 2] != ' ')
      continue;
    // Word before the apostrophe.
    std::size_t start = i;
    while (start > 0 && is_word_char(text[start - 1])) --start;
    if (start == i) continue;  // no word
    // Word after "'s ".
    std::size_t end = i + 3;
    std::size_t word_end = end;
    while (word_end < text.size() && is_word_char(text[word_end])) ++word_end;
    if (word_end == end) continue;
    out.emplace_back(text.substr(start, word_end - start));
  }
  return out;
}

std::vector<std::string> extract_uuids(std::string_view text) {
  std::vector<std::string> out;
  static constexpr int kGroups[] = {8, 4, 4, 4, 12};
  for (std::size_t i = 0; i + 36 <= text.size(); ++i) {
    std::size_t pos = i;
    bool ok = true;
    for (int g = 0; g < 5 && ok; ++g) {
      for (int k = 0; k < kGroups[g]; ++k) {
        if (!is_hex_char(text[pos++])) {
          ok = false;
          break;
        }
      }
      if (ok && g < 4) {
        if (text[pos++] != '-') ok = false;
      }
    }
    // Avoid matching the middle of a longer hex run.
    if (ok && i > 0 && is_hex_char(text[i - 1])) ok = false;
    if (ok && pos < text.size() && is_hex_char(text[pos])) ok = false;
    if (ok) {
      std::string uuid(text.substr(i, 36));
      for (auto& c : uuid) c = static_cast<char>(std::tolower(c));
      out.push_back(std::move(uuid));
      i += 35;
    }
  }
  return out;
}

namespace {
std::optional<std::string> canonical_mac(std::string_view candidate,
                                         std::optional<std::uint32_t> oui) {
  const auto mac = MacAddress::parse(candidate);
  if (!mac) return std::nullopt;
  if (oui && mac->oui() != *oui) return std::nullopt;
  return mac->to_string();
}
}  // namespace

std::vector<std::string> extract_macs(std::string_view text,
                                      std::optional<std::uint32_t> expected_oui) {
  std::vector<std::string> out;
  // Separated forms: xx:xx:xx:xx:xx:xx or dashes (17 chars).
  for (std::size_t i = 0; i + 17 <= text.size(); ++i) {
    const std::string_view candidate = text.substr(i, 17);
    bool shape = true;
    for (int k = 0; k < 17 && shape; ++k) {
      if (k % 3 == 2) {
        shape = candidate[k] == ':' || candidate[k] == '-';
      } else {
        shape = is_hex_char(candidate[k]);
      }
    }
    if (!shape) continue;
    if (const auto mac = canonical_mac(candidate, expected_oui)) {
      out.push_back(*mac);
      i += 16;
    }
  }
  // Bare 12-hex form, only with an OUI filter (otherwise the false-positive
  // rate on arbitrary hex is unacceptable — the paper's motivation for the
  // OUI check).
  if (expected_oui) {
    for (std::size_t i = 0; i + 12 <= text.size(); ++i) {
      if (i > 0 && is_hex_char(text[i - 1])) continue;
      const std::string_view candidate = text.substr(i, 12);
      bool all_hex = true;
      for (char c : candidate) all_hex = all_hex && is_hex_char(c);
      if (!all_hex) continue;
      if (i + 12 < text.size() && is_hex_char(text[i + 12])) continue;
      if (const auto mac = canonical_mac(candidate, expected_oui)) {
        out.push_back(*mac);
        i += 11;
      }
    }
  }
  return out;
}

std::vector<ExtractedIdentifier> extract_identifiers(
    std::string_view text, std::optional<std::uint32_t> expected_oui) {
  std::vector<ExtractedIdentifier> out;
  for (auto& name : extract_possessive_names(text))
    out.push_back({IdentifierType::kName, std::move(name)});
  for (auto& uuid : extract_uuids(text))
    out.push_back({IdentifierType::kUuid, std::move(uuid)});
  for (auto& mac : extract_macs(text, expected_oui))
    out.push_back({IdentifierType::kMacAddress, std::move(mac)});
  return out;
}

void harvest_identifiers(std::string_view text, std::uint32_t oui,
                         std::set<ExtractedIdentifier>& out) {
  for (auto& id : extract_identifiers(text, oui)) out.insert(std::move(id));
  for (auto& mac : extract_macs(text))
    out.insert({IdentifierType::kMacAddress, std::move(mac)});
}

}  // namespace roomnet
