#include "analysis/identifiers.hpp"

#include <algorithm>
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
/// The end of the hex run through `text[i]`, or `i` when it is not hex.
std::size_t hex_run_end(std::string_view text, std::size_t i) {
  while (i < text.size() && is_hex_char(text[i])) ++i;
  return i;
}
}  // namespace

std::vector<std::string> extract_possessive_names(std::string_view text) {
  std::vector<std::string> out;
  // Every match turns on an apostrophe: jump from one to the next.
  for (std::size_t i = text.find('\'');
       i != std::string_view::npos && i + 3 < text.size();
       i = text.find('\'', i + 1)) {
    if (text[i + 1] != 's' || text[i + 2] != ' ') continue;
    // Word before the apostrophe.
    std::size_t start = i;
    while (start > 0 && is_word_char(text[start - 1])) --start;
    if (start == i) continue;  // no word
    // Word after "'s ".
    std::size_t word_end = i + 3;
    while (word_end < text.size() && is_word_char(text[word_end])) ++word_end;
    if (word_end == i + 3) continue;
    out.emplace_back(text.substr(start, word_end - start));
  }
  return out;
}

std::vector<std::string> extract_uuids(std::string_view text) {
  std::vector<std::string> out;
  static constexpr int kGroups[] = {8, 4, 4, 4, 12};
  // A UUID may not sit inside a longer hex run, so it can start only where
  // a hex run starts: one attempt per run, and after a failed one the rest
  // of the run is skipped. At the loop head `i` is 0 or follows a non-hex
  // character.
  std::size_t i = 0;
  while (i + 36 <= text.size()) {
    if (!is_hex_char(text[i])) {
      ++i;
      continue;
    }
    std::size_t pos = i;
    bool ok = true;
    for (int g = 0; g < 5 && ok; ++g) {
      for (int k = 0; k < kGroups[g] && ok; ++k) ok = is_hex_char(text[pos++]);
      if (ok && g < 4) ok = text[pos++] == '-';
    }
    if (ok && pos < text.size() && is_hex_char(text[pos])) ok = false;
    if (ok) {
      std::string uuid(text.substr(i, 36));
      for (auto& c : uuid) c = static_cast<char>(std::tolower(c));
      out.push_back(std::move(uuid));
      i = pos;  // a non-hex character, or the end
    } else {
      i = hex_run_end(text, i);
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
  // Separated forms: xx:xx:xx:xx:xx:xx or dashes (17 chars). The first
  // separator, the third character, rejects most positions before the
  // shape walk.
  for (std::size_t i = 0; i + 17 <= text.size(); ++i) {
    if (text[i + 2] != ':' && text[i + 2] != '-') continue;
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
  // Bare 12-hex form — exactly a 12-character hex run — only with an OUI
  // filter (otherwise the false-positive rate on arbitrary hex is
  // unacceptable — the paper's motivation for the OUI check).
  if (expected_oui) {
    for (std::size_t i = 0; i < text.size();) {
      const std::size_t end = hex_run_end(text, i);
      if (end - i == 12) {
        if (const auto mac = canonical_mac(text.substr(i, 12), expected_oui))
          out.push_back(*mac);
      }
      i = std::max(end, i + 1);
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

ExposureClass exposure_class(const std::set<ExtractedIdentifier>& ids) {
  ExposureClass types;
  for (const auto& id : ids) {
    switch (id.type) {
      case IdentifierType::kName: types.name = true; break;
      case IdentifierType::kUuid: types.uuid = true; break;
      case IdentifierType::kMacAddress: types.mac = true; break;
    }
  }
  return types;
}

void harvest_identifiers(std::string_view text, std::uint32_t oui,
                         std::set<ExtractedIdentifier>& out) {
  for (auto& id : extract_identifiers(text, oui)) out.insert(std::move(id));
  for (auto& mac : extract_macs(text))
    out.insert({IdentifierType::kMacAddress, std::move(mac)});
}

}  // namespace roomnet
