// Checked whole-file output: the one writer behind every run artifact
// (manifest.json, perf.json, events.jsonl, the telemetry and fleet files),
// and the one JSON string escaper those artifacts are written with.
#pragma once

#include <string>
#include <string_view>

namespace roomnet {

/// Creates or truncates `path` and writes `text` to it byte-for-byte.
/// Returns false when the file cannot be opened or the write fails.
[[nodiscard]] bool write_text_file(const std::string& path,
                                   std::string_view text);

/// `s` escaped for the inside of a JSON string literal (quotes not added):
/// `"` and `\` backslashed, `\n` `\r` `\t` as their short escapes, every
/// other control character as `\u00XX`; all other bytes pass through.
[[nodiscard]] std::string escape_json(std::string_view s);

}  // namespace roomnet
