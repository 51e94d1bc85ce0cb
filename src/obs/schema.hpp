// The run record's format version, shared by manifest.json (RunManifest)
// and perf.json (prof::ProfReport): one record, one schema. Both parsers
// reject any other value, or a missing one, so `roomnet audit diff` and
// `roomnet prof diff` never silently misread a record from another format.
#pragma once

namespace roomnet::obs {

inline constexpr int kRunRecordSchema = 1;

}  // namespace roomnet::obs
