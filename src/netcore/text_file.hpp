// Checked whole-file output: the one writer behind every run artifact
// (manifest.json, perf.json, events.jsonl, the telemetry and fleet files).
#pragma once

#include <string>
#include <string_view>

namespace roomnet {

/// Creates or truncates `path` and writes `text` to it byte-for-byte.
/// Returns false when the file cannot be opened or the write fails.
[[nodiscard]] bool write_text_file(const std::string& path,
                                   std::string_view text);

}  // namespace roomnet
