#include "obs/manifest.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "proto/json.hpp"

namespace roomnet::obs {

namespace {

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Seeds serialize as 0x-hex strings: the JSON number space (doubles) loses
/// integer precision past 2^53, and fault seeds are full-width u64s.
std::string hex_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
  return buf;
}

std::optional<std::uint64_t> parse_hex_u64(const json::Value* v) {
  if (v == nullptr || !v->is_string()) return std::nullopt;
  const std::string& s = v->as_string();
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(s.c_str(), &end, 0);
  if (end == nullptr || *end != '\0' || s.empty()) return std::nullopt;
  return parsed;
}

const std::string* get_string(const json::Value& obj, std::string_view key) {
  const json::Value* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? &v->as_string() : nullptr;
}

}  // namespace

void CanonicalHasher::u8(std::uint8_t v) { hash_.update(BytesView(&v, 1)); }

void CanonicalHasher::u16(std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v)};
  hash_.update(BytesView(b, 2));
}

void CanonicalHasher::u32(std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i)
    b[i] = static_cast<std::uint8_t>(v >> (24 - 8 * i));
  hash_.update(BytesView(b, 4));
}

void CanonicalHasher::u64(std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i)
    b[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  hash_.update(BytesView(b, 8));
}

void CanonicalHasher::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void CanonicalHasher::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void CanonicalHasher::boolean(bool v) { u8(v ? 1 : 0); }

void CanonicalHasher::str(std::string_view s) {
  u64(s.size());
  hash_.update(BytesView(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size()));
}

void CanonicalHasher::bytes(BytesView data) {
  u64(data.size());
  hash_.update(data);
}

ManifestBuilder::ManifestBuilder() {
  manifest_.compiler = __VERSION__;
  manifest_.cxx_standard = __cplusplus;
}

void ManifestBuilder::begin(std::uint64_t sim_seed, std::uint64_t fault_seed,
                            std::string config_digest) {
  manifest_.sim_seed = sim_seed;
  manifest_.fault_seed = fault_seed;
  manifest_.config_digest = std::move(config_digest);
}

void ManifestBuilder::add_stage(std::string name, std::string content_sha256,
                                std::int64_t sim_us) {
  manifest_.stages.push_back(
      StageRecord{std::move(name), std::move(content_sha256), sim_us});
}

RunManifest ManifestBuilder::finish() {
  CanonicalHasher hasher;
  for (const StageRecord& stage : manifest_.stages) {
    hasher.str(stage.name);
    hasher.str(stage.sha256);
  }
  manifest_.result_digest = hasher.hex();
  return manifest_;
}

std::string to_json(const RunManifest& m) {
  std::string out = "{\n";
  out += "  \"schema\": " + std::to_string(m.schema) + ",\n";
  out += "  \"tool\": \"" + escape_json(m.tool) + "\",\n";
  out += "  \"build\": {\"compiler\": \"" + escape_json(m.compiler) +
         "\", \"cxx_standard\": " + std::to_string(m.cxx_standard) + "},\n";
  out += "  \"run\": {\"sim_seed\": \"" + hex_u64(m.sim_seed) +
         "\", \"fault_seed\": \"" + hex_u64(m.fault_seed) +
         "\", \"config_digest\": \"" + escape_json(m.config_digest) + "\"},\n";
  out += "  \"stages\": [";
  bool first = true;
  for (const StageRecord& s : m.stages) {
    if (!first) out += ",";
    first = false;
    out += "\n    {\"name\": \"" + escape_json(s.name) + "\", \"sha256\": \"" +
           escape_json(s.sha256) +
           "\", \"sim_us\": " + std::to_string(s.sim_us) + "}";
  }
  out += m.stages.empty() ? "],\n" : "\n  ],\n";
  out += "  \"result_digest\": \"" + escape_json(m.result_digest) + "\"\n";
  out += "}\n";
  return out;
}

std::optional<RunManifest> parse_manifest(std::string_view text) {
  const std::optional<json::Value> doc = json::parse(text);
  if (!doc || !doc->is_object()) return std::nullopt;

  RunManifest m;
  if (const json::Value* schema = doc->find("schema");
      schema != nullptr && schema->is_number())
    m.schema = static_cast<int>(schema->as_number());
  else
    return std::nullopt;
  if (const std::string* tool = get_string(*doc, "tool"))
    m.tool = *tool;
  else
    return std::nullopt;

  const json::Value* build = doc->find("build");
  if (build == nullptr || !build->is_object()) return std::nullopt;
  if (const std::string* compiler = get_string(*build, "compiler"))
    m.compiler = *compiler;
  if (const json::Value* std_v = build->find("cxx_standard");
      std_v != nullptr && std_v->is_number())
    m.cxx_standard = static_cast<std::int64_t>(std_v->as_number());

  const json::Value* run = doc->find("run");
  if (run == nullptr || !run->is_object()) return std::nullopt;
  const auto sim_seed = parse_hex_u64(run->find("sim_seed"));
  const auto fault_seed = parse_hex_u64(run->find("fault_seed"));
  const std::string* config_digest = get_string(*run, "config_digest");
  if (!sim_seed || !fault_seed || config_digest == nullptr)
    return std::nullopt;
  m.sim_seed = *sim_seed;
  m.fault_seed = *fault_seed;
  m.config_digest = *config_digest;

  const json::Value* stages = doc->find("stages");
  if (stages == nullptr || !stages->is_array()) return std::nullopt;
  for (const json::Value& entry : stages->as_array()) {
    const std::string* name = get_string(entry, "name");
    const std::string* hash = get_string(entry, "sha256");
    const json::Value* sim_us = entry.find("sim_us");
    if (name == nullptr || hash == nullptr || sim_us == nullptr ||
        !sim_us->is_number())
      return std::nullopt;
    StageRecord record;
    record.name = *name;
    record.sha256 = *hash;
    record.sim_us = static_cast<std::int64_t>(sim_us->as_number());
    m.stages.push_back(std::move(record));
  }

  if (const std::string* digest = get_string(*doc, "result_digest"))
    m.result_digest = *digest;
  else
    return std::nullopt;
  return m;
}

std::optional<RunManifest> load_manifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_manifest(buffer.str());
}

ManifestDiff diff_manifests(const RunManifest& a, const RunManifest& b) {
  ManifestDiff diff;
  if (a.sim_seed != b.sim_seed) {
    diff.component = "sim_seed";
    diff.detail = "sim seeds differ: " + hex_u64(a.sim_seed) + " vs " +
                  hex_u64(b.sim_seed);
    return diff;
  }
  if (a.fault_seed != b.fault_seed) {
    diff.component = "fault_seed";
    diff.detail = "fault seeds differ: " + hex_u64(a.fault_seed) + " vs " +
                  hex_u64(b.fault_seed) +
                  " (divergence below is expected; it localizes the first "
                  "stage the fault stream touches)";
    // Not returning: with different fault seeds the caller wants the first
    // divergent *stage*, which the stage walk below names.
  }
  if (a.config_digest != b.config_digest) {
    diff.component = "config";
    diff.detail = "config digests differ: the runs were not configured alike";
    return diff;
  }
  if (a.compiler != b.compiler || a.cxx_standard != b.cxx_standard) {
    diff.component = "build";
    diff.detail = "builds differ: \"" + a.compiler + "\" vs \"" + b.compiler +
                  "\"";
    return diff;
  }
  const std::size_t common = std::min(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (a.stages[i].name != b.stages[i].name) {
      diff.component = "stage_list";
      diff.detail = "stage " + std::to_string(i) + " named \"" +
                    a.stages[i].name + "\" vs \"" + b.stages[i].name + "\"";
      return diff;
    }
    if (a.stages[i].sha256 != b.stages[i].sha256 ||
        a.stages[i].sim_us != b.stages[i].sim_us) {
      diff.component = "stage";
      diff.stage = a.stages[i].name;
      diff.detail = "first divergent stage: \"" + a.stages[i].name +
                    "\" (" + a.stages[i].sha256.substr(0, 12) + "… vs " +
                    b.stages[i].sha256.substr(0, 12) + "…)";
      return diff;
    }
  }
  if (a.stages.size() != b.stages.size()) {
    diff.component = "stage_list";
    diff.detail = "stage counts differ: " + std::to_string(a.stages.size()) +
                  " vs " + std::to_string(b.stages.size());
    return diff;
  }
  if (!diff.component.empty()) return diff;  // fault_seed-only difference
  diff.equal = true;
  diff.detail = "manifests identical (result digest " +
                a.result_digest.substr(0, 12) + "…)";
  return diff;
}

std::int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  if (!status) return 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::int64_t kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %" PRId64, &kb) == 1) return kb;
    return 0;
  }
  return 0;
}

}  // namespace roomnet::obs
