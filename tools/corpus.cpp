// roomnet corpus gen: seeds the fuzz corpora from realistic traffic. Runs a
// short testbed simulation (and optionally reads every pcap in a capture
// directory), then files each frame and each application payload into the
// per-harness corpus layout the fuzz executables consume:
//
//   <out>/frame/      raw link-layer frames        (fuzz_frame)
//   <out>/dns/        port 53/5353 payloads        (fuzz_dns)
//   <out>/dhcp/       port 67/68 payloads          (fuzz_dhcp)
//   <out>/ssdp/       port 1900 payloads           (fuzz_ssdp)
//   <out>/tls/        port 443 / TLS-shaped        (fuzz_tls)
//   <out>/payload/    every other app payload      (fuzz_payload)
//   <out>/roundtrip/  entropy seeds                (fuzz_roundtrip)
//   <out>/stream/     framed multi-packet records  (fuzz_stream)
//
// Files are content-addressed (first 16 sha256 hex chars), so re-running
// against the same traffic is idempotent and merging corpora is a plain
// copy. Usage:
//
//   roomnet corpus gen <out_dir> [--seed N] [--idle-seconds N]
//                      [--interactions N] [--pcap-dir DIR]
//                      [--max-per-category N]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cli.hpp"
#include "netcore/pcap.hpp"
#include "netcore/sha256.hpp"
#include "proto/tls.hpp"
#include "testbed/lab.hpp"

namespace roomnet {
namespace {

namespace fs = std::filesystem;

struct Options {
  std::string out_dir;
  std::uint64_t seed = 42;
  SimTime idle = SimTime::from_seconds(60);
  int interactions = 20;
  std::string pcap_dir;
  std::size_t max_per_category = 256;
};

class CorpusWriter {
 public:
  explicit CorpusWriter(const Options& options) : options_(options) {}

  void add(const std::string& category, BytesView data) {
    if (data.empty()) return;
    auto& count = written_[category];
    if (count >= options_.max_per_category) {
      ++dropped_;
      return;
    }
    const fs::path dir = fs::path(options_.out_dir) / category;
    fs::create_directories(dir);
    const fs::path path =
        dir / (sha256_hex(data).substr(0, 16) + ".bin");
    if (fs::exists(path)) return;  // content-addressed: already seeded
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
    if (f) ++count;
  }

  void report() const {
    std::size_t total = 0;
    for (const auto& [category, count] : written_) {
      std::printf("  %-10s %zu files\n", category.c_str(), count);
      total += count;
    }
    std::printf("seeded %zu corpus files under %s\n", total,
                options_.out_dir.c_str());
    if (dropped_ > 0)
      std::printf("note: dropped %zu inputs past the per-category cap of "
                  "%zu (raise with --max-per-category)\n",
                  dropped_, options_.max_per_category);
  }

 private:
  const Options& options_;
  std::map<std::string, std::size_t> written_;
  std::size_t dropped_ = 0;
};

bool is_port(const PacketView& view, std::uint16_t number) {
  const auto src = view.src_port();
  const auto dst = view.dst_port();
  return (src && value(*src) == number) || (dst && value(*dst) == number);
}

std::string classify_payload(const PacketView& view) {
  if (is_port(view, 53) || is_port(view, 5353)) return "dns";
  if (is_port(view, 67) || is_port(view, 68)) return "dhcp";
  if (is_port(view, 1900)) return "ssdp";
  if (is_port(view, 443) || looks_like_tls(view.app_payload())) return "tls";
  return "payload";
}

void add_frame(CorpusWriter& writer, BytesView frame) {
  writer.add("frame", frame);
  const auto view = decode_frame_view(frame);
  if (!view) return;
  const BytesView payload = view->app_payload();
  if (!payload.empty()) writer.add(classify_payload(*view), payload);
}

// The stream harness consumes an eviction-knob preamble followed by
// [u16 delta_ms][u16 length][frame] records; pack simulation frames into
// seeds of up to kFramesPerSeed packets each.
void add_stream_seeds(CorpusWriter& writer,
                      const std::vector<PcapRecord>& records) {
  constexpr std::size_t kFramesPerSeed = 48;
  constexpr std::size_t kMaxFrame = 2048;
  Bytes seed;
  std::size_t packed = 0;
  SimTime last = SimTime::from_us(0);
  const auto flush = [&] {
    if (packed > 0) writer.add("stream", BytesView(seed));
    seed.clear();
    packed = 0;
  };
  for (const auto& record : records) {
    if (seed.empty()) {
      // Preamble: bounded flows + small memcap so eviction paths run.
      const std::uint8_t preamble[] = {0, 0, 0, 4,   // max_flows = 4
                                       2,            // memcap = 2048
                                       0, 0, 0, 10,  // idle 10 s
                                       0, 0, 0, 30}; // established 30 s
      seed.assign(preamble, preamble + sizeof(preamble));
    }
    const std::uint64_t delta_ms =
        record.timestamp > last ? (record.timestamp - last).us() / 1000 : 0;
    last = record.timestamp;
    const std::uint16_t delta16 =
        static_cast<std::uint16_t>(std::min<std::uint64_t>(delta_ms, 0xffff));
    const std::size_t len = std::min(record.frame.size(), kMaxFrame);
    seed.push_back(static_cast<std::uint8_t>(delta16 >> 8));
    seed.push_back(static_cast<std::uint8_t>(delta16));
    seed.push_back(static_cast<std::uint8_t>(len >> 8));
    seed.push_back(static_cast<std::uint8_t>(len));
    seed.insert(seed.end(), record.frame.begin(), record.frame.begin() + len);
    if (++packed == kFramesPerSeed) flush();
  }
  flush();
}

int generate(const Options& options) {
  CorpusWriter writer(options);

  // Simulated traffic: a short boot + idle + interaction run covers DHCP,
  // mDNS/DNS, SSDP, TLS, and the vendor UDP protocols the devices speak.
  LabConfig config;
  config.seed = options.seed;
  config.boot_window_s = std::min(options.idle.seconds() / 2, 30.0);
  Lab lab(config);
  lab.start_all();
  lab.run_idle(options.idle);
  if (options.interactions > 0) lab.run_interactions(options.interactions);
  std::printf("simulation captured %zu frames (seed %llu)\n",
              lab.capture().size(),
              static_cast<unsigned long long>(options.seed));
  for (const auto& record : lab.capture().records())
    add_frame(writer, BytesView(record.frame));
  add_stream_seeds(writer, lab.capture().records());

  // Roundtrip seeds are raw generator entropy; a spread of frames gives the
  // selector one seed per codec family.
  std::size_t fed = 0;
  for (const auto& record : lab.capture().records()) {
    if (fed >= 32) break;
    if (record.frame.size() < 24) continue;
    Bytes entropy;
    entropy.push_back(static_cast<std::uint8_t>(fed % 21));
    entropy.insert(entropy.end(), record.frame.begin(), record.frame.end());
    writer.add("roundtrip", BytesView(entropy));
    ++fed;
  }

  // Recorded traffic, when a capture directory is supplied.
  if (!options.pcap_dir.empty()) {
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(options.pcap_dir, ec))
      if (entry.path().extension() == ".pcap") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    std::size_t frames = 0;
    std::vector<PcapRecord> all;
    for (const auto& file : files) {
      const auto records = read_pcap_file(file.string());
      if (!records) {
        std::fprintf(stderr, "WARNING: unreadable pcap %s\n",
                     file.string().c_str());
        continue;
      }
      for (const auto& record : *records) add_frame(writer, BytesView(record.frame));
      all.insert(all.end(), records->begin(), records->end());
      frames += records->size();
    }
    add_stream_seeds(writer, all);
    std::printf("read %zu frames from %zu pcaps in %s\n", frames,
                files.size(), options.pcap_dir.c_str());
  }

  writer.report();
  return 0;
}

}  // namespace

int cli::corpus_gen_main(int argc, char** argv) {
  if (argc < 1) throw cli::UsageError("corpus gen needs an output directory");
  Options options;
  options.out_dir = argv[0];
  cli::Flags flags(argc - 1, argv + 1);
  while (flags.next()) {
    if (flags.is("--seed"))
      options.seed = static_cast<std::uint64_t>(flags.integer());
    else if (flags.is("--idle-seconds"))
      options.idle = flags.seconds();
    else if (flags.is("--interactions"))
      options.interactions = static_cast<int>(flags.count(cli::kIntMax));
    else if (flags.is("--pcap-dir"))
      options.pcap_dir = flags.value();
    else if (flags.is("--max-per-category"))
      options.max_per_category = static_cast<std::size_t>(flags.count());
    else
      flags.unknown();
  }
  return generate(options);
}

}  // namespace roomnet
