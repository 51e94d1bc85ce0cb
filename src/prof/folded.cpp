#include "prof/folded.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>
#include <vector>

#include "netcore/text_file.hpp"
#include "prof/counters.hpp"

namespace roomnet::prof {

namespace {

struct Span {
  const telemetry::TraceEvent* event;
  std::uint64_t start;
  std::uint64_t end;
};

std::uint64_t weight_of(const telemetry::TraceEvent& e, FoldedWeight weight) {
  switch (weight) {
    case FoldedWeight::kWallMicros:
      return e.wall_dur_us;
    case FoldedWeight::kAllocBytes:
      // Heap attribution when the global hooks are live, else the explicit
      // arena counters (the only thing that moves with ROOMNET_PROFILE=OFF).
      return heap_hooks_active() ? e.alloc_bytes : e.arena_bytes;
  }
  return 0;
}

/// Frame separators would corrupt the folded format; space separates the
/// stack from its weight.
std::string sanitize_frame(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  return out;
}

}  // namespace

std::string folded_stacks(const telemetry::Tracer& tracer,
                          FoldedWeight weight) {
  const std::vector<telemetry::TraceEvent> events = tracer.snapshot();

  std::map<int, std::string> thread_names;
  for (const auto& [tid, name] : tracer.thread_names())
    thread_names[tid] = sanitize_frame(name);

  // Group complete spans per thread track.
  std::map<int, std::vector<Span>> tracks;
  for (const telemetry::TraceEvent& e : events) {
    if (e.phase != 'X') continue;
    tracks[e.tid].push_back(
        Span{&e, e.wall_start_us, e.wall_start_us + e.wall_dur_us});
  }

  std::map<std::string, std::uint64_t> folded;
  for (auto& [tid, spans] : tracks) {
    // Parents sort before their children: earlier start first, and on equal
    // starts the longer (outer) span first.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) {
                       if (a.start != b.start) return a.start < b.start;
                       return a.end > b.end;
                     });

    const std::string root = [&] {
      const auto it = thread_names.find(tid);
      if (it != thread_names.end()) return it->second;
      return "tid-" + std::to_string(tid);
    }();

    struct Open {
      std::string path;
      std::uint64_t end;
      std::int64_t self;  // own weight minus completed children
    };
    std::vector<Open> stack;
    const auto close_top = [&] {
      const Open& top = stack.back();
      if (top.self > 0)
        folded[top.path] += static_cast<std::uint64_t>(top.self);
      stack.pop_back();
    };

    for (const Span& span : spans) {
      // Pop everything that cannot contain this span. Containment needs
      // top.end >= span.end (top.start <= span.start holds by sort order);
      // partial overlaps — possible only when the ring evicted a parent —
      // degrade to siblings instead of corrupting the stack.
      while (!stack.empty() && (stack.back().end <= span.start ||
                                stack.back().end < span.end))
        close_top();
      const std::uint64_t w = weight_of(*span.event, weight);
      if (!stack.empty())
        stack.back().self -= static_cast<std::int64_t>(w);
      const std::string parent =
          stack.empty() ? root : stack.back().path;
      stack.push_back(Open{parent + ";" + sanitize_frame(span.event->name),
                           span.end, static_cast<std::int64_t>(w)});
    }
    while (!stack.empty()) close_top();
  }

  std::string out;
  char buf[32];
  for (const auto& [path, total] : folded) {
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", total);
    out += path;
    out += buf;
  }
  return out;
}

std::string write_folded_stacks(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return dir;
  const telemetry::Tracer& tracer = telemetry::Tracer::global();
  for (const auto& [file, weight] :
       {std::pair{"trace.folded", FoldedWeight::kWallMicros},
        std::pair{"alloc.folded", FoldedWeight::kAllocBytes}}) {
    const std::string path = dir + "/" + file;
    if (!write_text_file(path, folded_stacks(tracer, weight))) return path;
  }
  return {};
}

}  // namespace roomnet::prof
