// Replays every committed fuzz finding through every harness entry point.
// The corpus under tests/fuzz/corpus/regressions/ holds minimized
// reproducers for past decoder bugs plus crafted adversarial inputs (label
// pointer loops, length-field overflows, pathological nesting). Each file
// runs through ALL harnesses, not just the one that found it — a frame
// that once broke the DNS parser is also a perfectly good stream or
// payload input, and cross-replay is free.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "netcore/packet_view.hpp"
#include "proto/app.hpp"

namespace roomnet::fuzz {
namespace {

namespace fs = std::filesystem;

std::optional<Bytes> load_hex(const fs::path& path) {
  std::ifstream f(path);
  if (!f) return std::nullopt;
  Bytes out;
  int hi = -1;
  bool comment = false;
  char c = 0;
  while (f.get(c)) {
    if (c == '#') comment = true;
    if (c == '\n') comment = false;
    if (comment || std::isspace(static_cast<unsigned char>(c))) continue;
    int nibble = -1;
    if (c >= '0' && c <= '9') nibble = c - '0';
    else if (c >= 'a' && c <= 'f') nibble = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') nibble = c - 'A' + 10;
    else return std::nullopt;
    if (hi < 0) {
      hi = nibble;
    } else {
      out.push_back(static_cast<std::uint8_t>(hi << 4 | nibble));
      hi = -1;
    }
  }
  if (hi >= 0) return std::nullopt;
  return out;
}

std::optional<Bytes> load_corpus_file(const fs::path& path) {
  if (path.extension() == ".hex") return load_hex(path);
  std::ifstream f(path, std::ios::binary);
  if (!f) return std::nullopt;
  Bytes out{std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
  return out;
}

struct CorpusEntry {
  std::string name;
  Bytes data;
};

const std::vector<CorpusEntry>& corpus() {
  static const std::vector<CorpusEntry> entries = [] {
    std::vector<CorpusEntry> out;
    const fs::path root(ROOMNET_FUZZ_CORPUS_DIR);
    if (!fs::is_directory(root)) return out;
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(root))
      if (entry.is_regular_file()) files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      auto data = load_corpus_file(file);
      EXPECT_TRUE(data.has_value())
          << "unreadable or malformed corpus file: " << file;
      if (data)
        out.push_back({fs::relative(file, root).string(), std::move(*data)});
    }
    return out;
  }();
  return entries;
}

void replay_all(std::string_view harness_name) {
  const HarnessInfo* harness = find_harness(harness_name);
  ASSERT_NE(harness, nullptr);
  ASSERT_FALSE(corpus().empty())
      << "regression corpus missing at " << ROOMNET_FUZZ_CORPUS_DIR;
  for (const auto& entry : corpus()) {
    SCOPED_TRACE(entry.name);
    // A regression either aborts (harness invariant / sanitizer report) or
    // returns 0; reaching the next line is the assertion.
    EXPECT_EQ(harness->entry(BytesView(entry.data)), 0);
  }
}

TEST(FuzzRegressions, RegistryIsComplete) {
  std::size_t count = 0;
  const HarnessInfo* all = harness_registry(&count);
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(count, 8u);
  for (std::size_t i = 0; i < count; ++i)
    EXPECT_EQ(find_harness(all[i].name), &all[i]);
  EXPECT_EQ(find_harness("no-such-harness"), nullptr);
}

TEST(FuzzRegressions, Frame) { replay_all("frame"); }

// The frame contract's app-layer clause is vacuous on frames whose payload
// decodes as nothing; this corpus frame carries a real mDNS response, so
// the memoized DNS decode is compared with the direct one.
TEST(FuzzRegressions, FrameAppLayerMemoAgreesOnMdnsResponse) {
  const auto data = load_corpus_file(fs::path(ROOMNET_FUZZ_CORPUS_DIR) /
                                     "frame/mdns-response-compressed.hex");
  ASSERT_TRUE(data.has_value());
  const auto view = decode_frame_view(BytesView(*data));
  ASSERT_TRUE(view.has_value());
  const AppScope app(*view);
  const DnsView* msg = dns_of(*view);
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->answers.size(), 1u);
  EXPECT_EQ(msg->answers.front().ptr()->to_string(),
            "Philips Hue - 685F61._hue._tcp.local");
  EXPECT_EQ(frame_contract_violation(BytesView(*data)), nullptr);
}
TEST(FuzzRegressions, Roundtrip) { replay_all("roundtrip"); }
TEST(FuzzRegressions, Dns) { replay_all("dns"); }
TEST(FuzzRegressions, Dhcp) { replay_all("dhcp"); }
TEST(FuzzRegressions, Ssdp) { replay_all("ssdp"); }
TEST(FuzzRegressions, Tls) { replay_all("tls"); }
TEST(FuzzRegressions, Payload) { replay_all("payload"); }
TEST(FuzzRegressions, Stream) { replay_all("stream"); }

}  // namespace
}  // namespace roomnet::fuzz
