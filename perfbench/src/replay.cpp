// The `replay` workload: each rep reads the committed capture through
// read_pcap_file and feeds every frame through the consumers the pipeline's
// tap installs — view decode, LocalFilter, the capture hash, the Watcher and
// the StreamAnalyzer — then finishes both. No simulator runs. Set-up is the
// population discovery (a read plus one decode/filter pass) before each
// pass; a pass fails when its result hash differs from the first pass's.
#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "capture/filter.hpp"
#include "common.hpp"
#include "core/pipeline.hpp"
#include "core/provenance.hpp"
#include "netcore/pcap.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"

namespace perfbench {

namespace {

using namespace roomnet;

constexpr std::size_t kMinReps = 3;
/// The committed 30-sim-minute quickstart capture, relative to the checkout
/// root, and its frame count.
constexpr const char* kCorpusPath = "quickstart_pcaps/all.pcap";
constexpr std::size_t kCorpusFrames = 37390;
/// Repeats of each per-builder loop in the traced run (median taken).
constexpr int kLoopRepeats = 3;

std::vector<PcapRecord> read_corpus() {
  const std::string path = kCorpusPath;
  std::optional<std::vector<PcapRecord>> records = read_pcap_file(path);
  if (!records) throw std::runtime_error("cannot read " + path + " as pcap");
  if (records->size() != kCorpusFrames)
    throw std::runtime_error(path + ": " + std::to_string(records->size()) +
                             " frames, expected " +
                             std::to_string(kCorpusFrames));
  return std::move(*records);
}

/// Every source MAC of a local frame: the household the capture came from.
std::set<MacAddress> discover_population(
    const std::vector<PcapRecord>& records) {
  const LocalFilter filter;
  std::set<MacAddress> population;
  for (const PcapRecord& record : records) {
    const auto view = decode_frame_view(BytesView(record.frame));
    if (view && filter.matches(*view)) population.insert(view->eth.src);
  }
  return population;
}

/// The replay result hash: the classify-stage hash of the stream results,
/// the watch timeline hash, and the capture hash of every local frame.
std::string result_hash(stream::StreamResults stream_results,
                        const watch::WatchReport& watch_report,
                        const std::string& capture_hex,
                        const std::set<MacAddress>& population) {
  PipelineResults results;
  results.usage = std::move(stream_results.usage);
  results.graph = std::move(stream_results.graph);
  results.crossval = std::move(stream_results.crossval);
  results.responses = std::move(stream_results.responses);
  results.exposure = std::move(stream_results.exposure);
  results.flows = stream_results.flows;
  results.population = population;
  obs::CanonicalHasher hash;
  hash.str(hash_classify_stage(results));
  hash.str(watch::hash_events(watch_report.events));
  hash.str(capture_hex);
  return hash.hex();
}

/// Per-layer time accumulators of one spanned pass (seconds).
struct PassSpans {
  double read = 0;
  double decode = 0;
  double filter = 0;
  double hash = 0;
  double watch = 0;
  double stream = 0;
  double stream_finish = 0;
  double watch_finish = 0;
  std::size_t frames = 0;
  std::size_t decoded = 0;
  std::size_t local = 0;
  std::size_t flows = 0;
  std::uint64_t events = 0;
};

/// One replay pass. With `spans`, every consumer call is timed into it; the
/// untimed pass is the end-to-end rep.
std::string replay_pass(const std::set<MacAddress>& population,
                        PassSpans* spans) {
  // Reads the clock only when spanning: the untraced pass pays nothing.
  double mark = spans != nullptr ? wall_now() : 0;
  const auto lap = [&](double PassSpans::*field) {
    if (spans == nullptr) return;
    const double now = wall_now();
    spans->*field += now - mark;
    mark = now;
  };

  const std::vector<PcapRecord> records = read_corpus();
  lap(&PassSpans::read);
  const LocalFilter filter;
  obs::CanonicalHasher capture_hash;
  watch::Watcher watcher(watch::WatchConfig{});
  stream::StreamAnalyzer analyzer(stream::StreamConfig{}, population);
  analyzer.set_flow_observer(
      [&watcher](const FlowRecord& record, PruneReason reason) {
        watcher.on_flow(record, reason);
      });
  std::size_t decoded = 0;
  std::size_t local = 0;
  if (spans != nullptr) mark = wall_now();
  for (const PcapRecord& record : records) {
    const BytesView raw(record.frame);
    const auto view = decode_frame_view(raw);
    lap(&PassSpans::decode);
    if (!view) continue;
    ++decoded;
    const bool is_local = filter.matches(*view);
    lap(&PassSpans::filter);
    if (!is_local) continue;
    ++local;
    capture_hash.i64(record.timestamp.us());
    capture_hash.bytes(raw);
    lap(&PassSpans::hash);
    watcher.on_packet(record.timestamp, *view);
    lap(&PassSpans::watch);
    analyzer.on_packet(record.timestamp, *view);
    lap(&PassSpans::stream);
  }
  stream::StreamResults stream_results = analyzer.finish();
  lap(&PassSpans::stream_finish);
  const watch::WatchReport watch_report = watcher.finish();
  lap(&PassSpans::watch_finish);
  if (spans != nullptr) {
    spans->frames = records.size();
    spans->decoded = decoded;
    spans->local = local;
    spans->flows = stream_results.flows;
    spans->events = watch_report.events_emitted;
  }
  if (local == 0) throw std::runtime_error("replay found no local frames");
  return result_hash(std::move(stream_results), watch_report,
                     capture_hash.hex(), population);
}

RepSamples replay_reps(double budget_s, Report& report) {
  RepSamples samples;
  std::string reference;
  const double start = wall_now();
  while (samples.wall_s.size() < kMinReps || !budget_spent(start, budget_s)) {
    samples.time_reference();
    const double setup_start = wall_now();
    const std::set<MacAddress> population = discover_population(read_corpus());
    samples.setup_s.push_back(wall_now() - setup_start);

    const double cpu0 = cpu_now();
    const double wall0 = wall_now();
    const std::string hash = replay_pass(population, nullptr);
    samples.wall_s.push_back(wall_now() - wall0);
    samples.cpu_s.push_back(cpu_now() - cpu0);
    samples.frames.push_back(static_cast<double>(kCorpusFrames));
    samples.households.push_back(1);
    if (reference.empty()) reference = hash;
    report.attempt(1, hash == reference ? 0 : 1);
  }
  samples.time_reference();
  return samples;
}

/// A decoded local frame of the corpus (views alias the records).
struct LocalFrame {
  SimTime at;
  PacketView view;
};

/// Median over kLoopRepeats of `loop`'s wall time, in ns per item.
double ns_per_item(std::size_t items, const std::function<void()>& loop) {
  std::vector<double> samples;
  for (int i = 0; i < kLoopRepeats; ++i) {
    const double start = wall_now();
    loop();
    samples.push_back((wall_now() - start) * 1e9 /
                      static_cast<double>(std::max<std::size_t>(items, 1)));
  }
  return median(samples);
}

/// Each stage-3 builder fed separately over the corpus's local frames.
void probe_builders(const std::vector<LocalFrame>& frames,
                    const std::set<MacAddress>& population, Report& report) {
  const std::size_t n = frames.size();
  report.metric("analysis.usage.on_packet_ns", ns_per_item(n, [&] {
                  ProtocolUsageBuilder builder;
                  for (const auto& f : frames) builder.on_packet(f.view);
                  (void)builder.finish();
                }),
                "ns");
  report.metric("analysis.graph.on_packet_ns", ns_per_item(n, [&] {
                  CommGraphBuilder builder(population);
                  for (const auto& f : frames) builder.on_packet(f.view);
                  (void)builder.finish();
                }),
                "ns");
  report.metric("analysis.exposure.on_packet_ns", ns_per_item(n, [&] {
                  ExposureBuilder builder;
                  for (const auto& f : frames) builder.on_packet(f.view);
                  (void)builder.finish();
                }),
                "ns");
  report.metric("classify.crossval.on_packet_ns", ns_per_item(n, [&] {
                  CrossValidator validator;
                  for (const auto& f : frames) validator.on_packet(f.view);
                  (void)validator.finish();
                }),
                "ns");
  report.metric("classify.responses.on_packet_ns", ns_per_item(n, [&] {
                  ResponseCorrelator correlator;
                  for (const auto& f : frames) correlator.on_packet(f.at, f.view);
                  (void)correlator.finish();
                }),
                "ns");

  std::vector<FlowRecord> flows;
  std::size_t peak_flows = 0;
  report.metric("capture.flow_cache.add_ns", ns_per_item(n, [&] {
                  flows.clear();
                  FlowCache cache(FlowCacheConfig{},
                                  [&](const FlowRecord& record, PruneReason) {
                                    flows.push_back(record);
                                  });
                  for (const auto& f : frames) cache.add(f.at, f.view);
                  peak_flows = cache.stats().peak_flows;
                  cache.flush();
                }),
                "ns");
  report.metric("capture.flow_cache.peak_flows",
                static_cast<double>(peak_flows), "count");
  report.metric("classify.crossval.on_flow_ns", ns_per_item(flows.size(), [&] {
                  CrossValidator validator;
                  for (const auto& record : flows)
                    validator.on_flow(record.to_flow());
                  (void)validator.finish();
                }),
                "ns");
}

/// App-layer decodes over the corpus's local payloads, by protocol.
void probe_proto(const std::vector<LocalFrame>& frames, Report& report) {
  std::vector<BytesView> dns, ssdp, dhcp, tls;
  for (const auto& f : frames) {
    const BytesView payload = f.view.app_payload();
    if (payload.empty()) continue;
    const auto is_port = [&](std::uint16_t p) {
      return value(*f.view.src_port()) == p || value(*f.view.dst_port()) == p;
    };
    if (f.view.udp) {
      if (is_port(53) || is_port(5353)) dns.push_back(payload);
      if (is_port(1900)) ssdp.push_back(payload);
      if (is_port(67) || is_port(68)) dhcp.push_back(payload);
    } else if (payload.size() >= 5 && payload[0] >= 20 && payload[0] <= 23 &&
               payload[1] == 3) {
      tls.push_back(payload);  // a TLS record header: type, version 3.x
    }
  }
  std::size_t sink = 0;
  const auto probe = [&](const char* name, const std::vector<BytesView>& inputs,
                         auto decode) {
    report.metric(std::string("proto.") + name + ".decode_ns",
                  ns_per_item(inputs.size(),
                              [&] {
                                for (const BytesView p : inputs)
                                  sink += decode(p) ? 1 : 0;
                              }),
                  "ns");
    report.metric(std::string("proto.") + name + ".decodes",
                  static_cast<double>(inputs.size()), "count");
  };
  probe("dns", dns, [](BytesView p) { return decode_dns(p).has_value(); });
  probe("ssdp", ssdp, [](BytesView p) { return decode_ssdp(p).has_value(); });
  probe("dhcp", dhcp, [](BytesView p) { return decode_dhcp(p).has_value(); });
  probe("tls", tls,
        [](BytesView p) { return decode_tls_record(p).has_value(); });
  if (sink == 0) report.fail_check("no app-layer payload decoded");
}

}  // namespace

double probe_corpus(bool headline, Report& report) {
  const std::set<MacAddress> population = discover_population(read_corpus());

  // The spanned pass: the replay rep with a span around every consumer call.
  const SimCounters sim;
  PassSpans spans;
  const double wall0 = wall_now();
  const std::string hash = replay_pass(population, &spans);
  const double traced_wall = wall_now() - wall0;
  if (headline) sim.report(report);
  const std::string untimed = replay_pass(population, nullptr);
  report.attempt(1, hash == untimed ? 0 : 1);

  const auto per = [](double seconds, std::size_t items) {
    return seconds * 1e9 / static_cast<double>(std::max<std::size_t>(items, 1));
  };
  report.metric("netcore.pcap_read_ms", spans.read * 1e3, "ms");
  report.metric("netcore.decode_ns", per(spans.decode, spans.frames), "ns");
  report.metric("capture.filter_ns", per(spans.filter, spans.decoded), "ns");
  report.metric("obs.capture_hash_ns", per(spans.hash, spans.local), "ns");
  report.metric("watch.on_packet_ns", per(spans.watch, spans.local), "ns");
  report.metric("watch.finish_ms", spans.watch_finish * 1e3, "ms");
  report.metric("watch.events", static_cast<double>(spans.events), "count");
  report.metric("stream.on_packet_ns", per(spans.stream, spans.local), "ns");
  report.metric("stream.finish_ms", spans.stream_finish * 1e3, "ms");
  report.metric("stream.flows", static_cast<double>(spans.flows), "count");

  const std::vector<PcapRecord> records = read_corpus();
  const LocalFilter filter;
  std::vector<LocalFrame> frames;
  for (const PcapRecord& record : records) {
    const auto view = decode_frame_view(BytesView(record.frame));
    if (view && filter.matches(*view)) frames.push_back({record.timestamp, *view});
  }
  probe_builders(frames, population, report);
  probe_proto(frames, report);
  return traced_wall;
}

void replay_workload(const Options& options, Report& report) {
  if (!options.trace) {
    report_end_to_end(replay_reps(options.seconds, report), report);
    return;
  }
  probe_study(options, false, report);  // first: see study_workload
  const RepSamples untraced = replay_reps(options.seconds / 2, report);
  const double traced = probe_corpus(true, report);
  report.metric("trace.overhead_frac", traced / median(untraced.wall_s) - 1,
                "ratio");
  probe_fleet(options, false, report);
}

}  // namespace perfbench
