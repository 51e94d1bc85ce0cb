#include "capture/capture.hpp"

#include <filesystem>

#include "telemetry/metrics.hpp"

namespace roomnet {

void CaptureSink::attach(Switch& net) {
  static telemetry::Counter& frames_retained =
      telemetry::Registry::global().counter("roomnet_capture_frames_retained");
  static telemetry::Counter& bytes_retained =
      telemetry::Registry::global().counter("roomnet_capture_bytes_retained");
  net.add_tap([this](SimTime at, BytesView frame) {
    frames_retained.inc();
    bytes_retained.inc(frame.size());
    records_.push_back({at, Bytes(frame.begin(), frame.end())});
  });
}

std::map<MacAddress, std::vector<std::size_t>>
CaptureSink::split_index_by_source() const {
  std::map<MacAddress, std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& rec = records_[i];
    if (rec.frame.size() < 12) continue;
    std::array<std::uint8_t, 6> src{};
    std::copy_n(rec.frame.begin() + 6, 6, src.begin());
    out[MacAddress(src)].push_back(i);
  }
  return out;
}

std::size_t CaptureSink::write_pcap_dir(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return 0;
  std::size_t written = 0;
  if (write_pcap_file(dir + "/all.pcap", records_)) ++written;
  for (const auto& [mac, indices] : split_index_by_source()) {
    std::string name = mac.to_string();
    for (auto& c : name)
      if (c == ':') c = '-';
    if (write_pcap_file(dir + "/" + name + ".pcap", records_, indices))
      ++written;
  }
  return written;
}

}  // namespace roomnet
