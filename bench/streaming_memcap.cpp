// Bounded-vs-unbounded stage-3 memory benchmark: replays one recorded idle
// corpus through the StreamAnalyzer twice — once with a non-evicting flow
// cache (every flow held until the final flush, the shape a stored capture
// would have) and once behind a memcap — at 1x and 4x corpus length. The
// headline is the growth shape DESIGN.md §12 promises: unbounded flow state
// is O(simulated time) — the cache peak grows with the corpus — while the
// memcap'd cache's peak is pinned by its memcap regardless of run length.
//
// Scalar naming feeds scripts/bench_guard.py's gate families: the
// *_heap_bytes_* scalars are deterministic for the fixed seed and sit under
// the alloc gate; peak_rss_kib sits under the rss gate.
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_util.hpp"
#include "stream/stream.hpp"

using namespace roomnet;
using namespace roomnet::bench;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Peak resident set (VmHWM) in KiB, from /proc/self/status; 0 if absent.
double peak_rss_kib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

constexpr std::size_t kMemcapBytes = 256 * 1024;

struct ReplayResult {
  double wall_ms = 0;
  std::size_t frames = 0;
  std::size_t flows = 0;            // flow records created
  std::size_t state_bytes = 0;      // flow-cache peak bytes
  std::uint64_t memcap_prunes = 0;  // zero when unbounded
  std::uint64_t checksum = 0;       // keeps the analyses from being elided

  [[nodiscard]] double frames_per_sec() const {
    return wall_ms <= 0 ? 0 : frames / (wall_ms / 1000.0);
  }
};

std::uint64_t fold_checksum(const ProtocolUsage& usage, const CommGraph& graph,
                            const CrossValidation& cv,
                            const ResponseStats& responses,
                            const ExposureMatrix& exposure) {
  std::uint64_t sum = 0;
  for (const auto& [mac, labels] : usage.by_device)
    sum += mac.to_u64() % 1009 + labels.size();
  for (const CommGraph::Edge& edge : graph.edges) sum += edge.packets;
  sum += cv.total + cv.agreed * 3 + cv.disagreed * 5;
  sum += responses.matches.size() * 7;
  for (const auto& [cell, macs] : exposure.cells) sum += macs.size();
  return sum;
}

/// One pass over the first `n` corpus frames: analyses folded per packet,
/// flow state behind a cache bounded by `memcap_bytes` (0 = never evict).
ReplayResult replay(const std::vector<std::pair<SimTime, Bytes>>& corpus,
                    std::size_t n, const std::set<MacAddress>& population,
                    std::size_t memcap_bytes) {
  const LocalFilter filter;
  ReplayResult out;
  stream::StreamConfig config;
  config.memcap_bytes = memcap_bytes;
  stream::StreamAnalyzer analyzer(config, population);

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& [at, frame] = corpus[i];
    const auto view = decode_frame_view(BytesView(frame));
    if (!view || !filter.matches(*view)) continue;
    analyzer.on_packet(at, *view);
  }
  stream::StreamResults results = analyzer.finish();
  out.wall_ms = ms_since(start);

  out.frames = analyzer.packets();
  out.flows = results.cache.flows_created;
  out.state_bytes = results.cache.peak_bytes;
  out.memcap_prunes = results.cache.prunes[static_cast<std::size_t>(
      PruneReason::kMemcap)];
  out.checksum = fold_checksum(results.usage, results.graph, results.crossval,
                               results.responses, results.exposure);
  return out;
}

void print_row(const char* label, const ReplayResult& r) {
  std::printf("%-26s %9zu %10.0f %10zu %12zu %10llu\n", label, r.frames,
              r.frames_per_sec(), r.flows, r.state_bytes,
              static_cast<unsigned long long>(r.memcap_prunes));
}

}  // namespace

int main() {
  header("streaming_memcap",
         "memcap'd vs unbounded flow cache on the stage-3 fold");

  // Record one long idle corpus (raw frames only); the 1x replay is the
  // timestamp prefix of the same recording, so 4x is exactly "the same
  // workload, run longer".
  constexpr int kIdleMinutes1x = 15;
  std::vector<std::pair<SimTime, Bytes>> corpus;
  std::set<MacAddress> population;
  {
    Lab lab(LabConfig{.seed = 42, .record_frames = false});
    lab.network().add_packet_tap(
        [&corpus](SimTime at, const PacketView&, BytesView raw) {
          corpus.emplace_back(at, Bytes(raw.begin(), raw.end()));
        });
    for (const auto& device : lab.devices()) population.insert(device->mac());
    lab.start_all();
    lab.run_idle(SimTime::from_minutes(4 * kIdleMinutes1x));
  }
  std::size_t cut_1x = 0;
  while (cut_1x < corpus.size() &&
         corpus[cut_1x].first <= SimTime::from_minutes(kIdleMinutes1x))
    ++cut_1x;
  std::printf("\ncorpus: %zu frames (%d min), 1x prefix: %zu frames (%d min)\n",
              corpus.size(), 4 * kIdleMinutes1x, cut_1x, kIdleMinutes1x);
  std::printf("flow-cache memcap: %zu bytes\n", kMemcapBytes);

  // Bounded first: peak RSS is process-monotone, so the memcap'd cache runs
  // before the deliberately unbounded one.
  const ReplayResult s1 = replay(corpus, cut_1x, population, kMemcapBytes);
  const ReplayResult s4 = replay(corpus, corpus.size(), population, kMemcapBytes);
  const double rss_after_streaming = peak_rss_kib();
  const ReplayResult u1 = replay(corpus, cut_1x, population, 0);
  const ReplayResult u4 = replay(corpus, corpus.size(), population, 0);

  std::printf("\n%-26s %9s %10s %10s %12s %10s\n", "path", "frames",
              "frames/s", "flows", "state bytes", "mc prunes");
  print_row("unbounded 1x", u1);
  print_row("unbounded 4x", u4);
  print_row("streaming+memcap 1x", s1);
  print_row("streaming+memcap 4x", s4);

  const auto growth = [](const ReplayResult& x1, const ReplayResult& x4) {
    return x1.state_bytes == 0
               ? 0
               : static_cast<double>(x4.state_bytes) / x1.state_bytes;
  };
  const double unbounded_growth = growth(u1, u4);
  const double streaming_growth = growth(s1, s4);
  // Same frames through both caches; flow counts differ by design (memcap
  // eviction splits flows), so packet totals are the consistency check.
  const bool consistent = u1.frames == s1.frames && u4.frames == s4.frames &&
                          u4.checksum != 0 && s4.checksum != 0 &&
                          s4.state_bytes <= kMemcapBytes + 4096;

  std::printf("\nstate growth 1x -> 4x: unbounded %.2fx, streaming %.2fx\n",
              unbounded_growth, streaming_growth);
  std::printf("streaming peak within memcap: %s (peak %zu, cap %zu)\n",
              s4.state_bytes <= kMemcapBytes + 4096 ? "yes" : "NO — BUG",
              s4.state_bytes, kMemcapBytes);
  std::printf("peak RSS: %.0f KiB after streaming, %.0f KiB final\n",
              rss_after_streaming, peak_rss_kib());

  scalar("corpus_frames", static_cast<double>(corpus.size()));
  scalar("unbounded_frames_per_sec_4x", u4.frames_per_sec());
  scalar("streaming_frames_per_sec_4x", s4.frames_per_sec());
  scalar("unbounded_cache_peak_heap_bytes_1x",
         static_cast<double>(u1.state_bytes));
  scalar("unbounded_cache_peak_heap_bytes_4x",
         static_cast<double>(u4.state_bytes));
  scalar("streaming_cache_peak_heap_bytes_1x",
         static_cast<double>(s1.state_bytes));
  scalar("streaming_cache_peak_heap_bytes_4x",
         static_cast<double>(s4.state_bytes));
  scalar("unbounded_state_growth_ratio", unbounded_growth);
  scalar("streaming_state_growth_ratio", streaming_growth);
  scalar("streaming_memcap_bytes", static_cast<double>(kMemcapBytes));
  scalar("streaming_memcap_prunes_4x", static_cast<double>(s4.memcap_prunes));
  scalar("streaming_flows_created_4x", static_cast<double>(s4.flows));
  scalar("unbounded_flows_4x", static_cast<double>(u4.flows));
  scalar("results_consistent", consistent ? 1 : 0);
  scalar("peak_rss_kib_streaming_phase", rss_after_streaming);
  scalar("peak_rss_kib", peak_rss_kib());
  scalar("hardware_threads",
         static_cast<double>(exec::TaskPool::default_threads()));

  // Acceptance: unbounded state tracks corpus length (~4x), memcap'd does
  // not.
  const bool pass =
      consistent && unbounded_growth > 2.5 && streaming_growth < 1.5;
  return pass ? 0 : 1;
}
