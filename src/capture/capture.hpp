// Capture sink: the tcpdump-on-the-AP vantage point. Records every frame on
// the switch with its timestamp as raw wire bytes, supports per-source-MAC
// splitting (the MonIoTr lab stores one pcap per device MAC, §3.1) and pcap
// export. Readers decode a record with decode_frame_view(); the view borrows
// the record's bytes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/pcap.hpp"
#include "sim/network.hpp"

namespace roomnet {

class CaptureSink {
 public:
  /// Starts capturing every frame transmitted on `net`. The sink must
  /// outlive the switch's use (taps hold a reference).
  void attach(Switch& net);

  [[nodiscard]] const std::vector<PcapRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  void clear() { records_.clear(); }

  /// Splits the capture by source MAC — one trace per device — as per-MAC
  /// vectors of record indices into records(), in capture order. No frame
  /// bytes are duplicated.
  [[nodiscard]] std::map<MacAddress, std::vector<std::size_t>>
  split_index_by_source() const;

  /// Writes <dir>/<mac>.pcap per device plus <dir>/all.pcap, streaming each
  /// per-device file from the index split (the capture is never duplicated).
  /// Returns the number of files written, 0 on failure.
  std::size_t write_pcap_dir(const std::string& dir) const;

 private:
  std::vector<PcapRecord> records_;
};

}  // namespace roomnet
