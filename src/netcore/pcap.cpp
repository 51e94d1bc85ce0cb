#include "netcore/pcap.hpp"

#include <filesystem>
#include <fstream>
#include <system_error>

namespace roomnet {

namespace {
constexpr std::uint32_t kMagicUs = 0xa1b2c3d4;
constexpr std::uint32_t kMagicUsSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kLinktypeEthernet = 1;
}  // namespace

namespace {
void write_pcap_header(ByteWriter& w, std::uint32_t snaplen) {
  w.u32_le(kMagicUs);
  w.u16_le(2).u16_le(4);  // version 2.4
  w.u32_le(0);            // thiszone
  w.u32_le(0);            // sigfigs
  w.u32_le(snaplen);
  w.u32_le(kLinktypeEthernet);
}

void write_pcap_record(ByteWriter& w, const PcapRecord& rec,
                       std::uint32_t snaplen) {
  const std::int64_t us = rec.timestamp.us();
  w.u32_le(static_cast<std::uint32_t>(us / 1000000));
  w.u32_le(static_cast<std::uint32_t>(us % 1000000));
  const std::uint32_t incl = std::min<std::uint32_t>(
      static_cast<std::uint32_t>(rec.frame.size()), snaplen);
  w.u32_le(incl);
  w.u32_le(static_cast<std::uint32_t>(rec.frame.size()));
  w.raw(BytesView(rec.frame).first(incl));
}
}  // namespace

Bytes encode_pcap(const std::vector<PcapRecord>& records, std::uint32_t snaplen) {
  ByteWriter w;
  write_pcap_header(w, snaplen);
  for (const auto& rec : records) write_pcap_record(w, rec, snaplen);
  return w.take();
}

Bytes encode_pcap(const std::vector<PcapRecord>& records,
                  const std::vector<std::size_t>& indices,
                  std::uint32_t snaplen) {
  ByteWriter w;
  write_pcap_header(w, snaplen);
  for (const std::size_t i : indices) {
    if (i < records.size()) write_pcap_record(w, records[i], snaplen);
  }
  return w.take();
}

std::optional<std::vector<PcapRecord>> decode_pcap(BytesView data) {
  ByteReader r(data);
  const auto magic_le = r.u32_le();
  if (!magic_le) return std::nullopt;
  bool little_endian;
  if (*magic_le == kMagicUs) {
    little_endian = true;
  } else if (*magic_le == kMagicUsSwapped) {
    little_endian = false;
  } else {
    return std::nullopt;
  }
  const auto read_u32 = [&](ByteReader& in) -> std::optional<std::uint32_t> {
    return little_endian ? in.u32_le() : in.u32();
  };
  const auto read_u16 = [&](ByteReader& in) -> std::optional<std::uint16_t> {
    return little_endian ? in.u16_le() : in.u16();
  };

  const auto version_major = read_u16(r);
  read_u16(r);  // minor
  read_u32(r);  // thiszone
  read_u32(r);  // sigfigs
  read_u32(r);  // snaplen
  const auto linktype = read_u32(r);
  if (!r.ok() || *version_major != 2 || *linktype != kLinktypeEthernet)
    return std::nullopt;

  // A walk over the record headers counts the records, so the vector is
  // sized once and a truncated record fails before any frame is copied.
  std::size_t count = 0;
  for (ByteReader walk = r; !walk.at_end(); ++count) {
    walk.skip(8);  // ts_sec, ts_usec
    const auto incl_len = read_u32(walk);
    walk.skip(4);  // orig_len
    if (!incl_len || !walk.skip(*incl_len)) return std::nullopt;
  }
  std::vector<PcapRecord> records;
  records.reserve(count);
  while (!r.at_end()) {
    const auto ts_sec = read_u32(r);
    const auto ts_usec = read_u32(r);
    const auto incl_len = read_u32(r);
    read_u32(r);  // orig_len
    if (!r.ok()) return std::nullopt;
    auto frame = r.bytes(*incl_len);
    if (!frame) return std::nullopt;
    PcapRecord rec;
    rec.timestamp = SimTime::from_us(static_cast<std::int64_t>(*ts_sec) * 1000000 +
                                     *ts_usec);
    rec.frame = std::move(*frame);
    records.push_back(std::move(rec));
  }
  return records;
}

namespace {
bool write_bytes_file(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return static_cast<bool>(out);
}
}  // namespace

bool write_pcap_file(const std::string& path,
                     const std::vector<PcapRecord>& records) {
  return write_bytes_file(path, encode_pcap(records));
}

bool write_pcap_file(const std::string& path,
                     const std::vector<PcapRecord>& records,
                     const std::vector<std::size_t>& indices) {
  return write_bytes_file(path, encode_pcap(records, indices));
}

std::optional<std::vector<PcapRecord>> read_pcap_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  // The whole file into one buffer with large reads. The buffer is sized
  // from the file's length, one byte over so the first read also meets EOF;
  // what has no length (a pipe) or grew meanwhile is read on in 1 MiB steps.
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  std::error_code no_size;
  const std::uintmax_t size = std::filesystem::file_size(path, no_size);
  Bytes data(no_size ? kChunk : static_cast<std::size_t>(size) + 1);
  std::size_t used = 0;
  while (true) {
    in.read(reinterpret_cast<char*>(data.data() + used),
            static_cast<std::streamsize>(data.size() - used));
    used += static_cast<std::size_t>(in.gcount());
    if (!in) break;
    data.resize(data.size() + kChunk);
  }
  if (in.bad()) return std::nullopt;
  data.resize(used);
  return decode_pcap(BytesView(data));
}

}  // namespace roomnet
