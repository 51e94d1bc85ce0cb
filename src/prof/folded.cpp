#include "prof/folded.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>

namespace roomnet::prof {

namespace {

/// Frame separators would corrupt the folded format; space separates the
/// stack from its weight.
std::string sanitize_frame(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  return out;
}

}  // namespace

std::string folded_stacks(const ProfReport& report) {
  const std::string root = "main;pipeline";
  std::map<std::string, std::int64_t> folded;
  std::int64_t staged_us = 0;
  for (const StageProfile& stage : report.stages) {
    folded[root + ";" + sanitize_frame(stage.name)] += stage.wall_us;
    staged_us += stage.wall_us;
  }
  if (report.totals.wall_us > staged_us)
    folded[root] = report.totals.wall_us - staged_us;

  std::string out;
  char buf[32];
  for (const auto& [path, weight] : folded) {
    std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", weight);
    out += path;
    out += buf;
  }
  return out;
}

}  // namespace roomnet::prof
