#include "netcore/checksum.hpp"

namespace roomnet {

namespace {
/// One's-complement sum of `data` as big-endian 16-bit words (odd tail
/// padded) onto `acc`. Eight bytes per step: a 64-bit one's-complement add
/// with end-around carry is the sum of its four 16-bit words modulo 0xffff
/// (RFC 1071 §2), so fold() gives the same checksum as a word-by-word sum.
std::uint64_t sum16(BytesView data, std::uint64_t acc) {
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const std::uint64_t v = load_be64(data.data() + i);
    acc += v;
    acc += acc < v ? 1 : 0;  // end-around carry
  }
  std::uint64_t tail = 0;
  for (; i + 1 < data.size(); i += 2)
    tail += (static_cast<std::uint64_t>(data[i]) << 8) | data[i + 1];
  if (i < data.size()) tail += static_cast<std::uint64_t>(data[i]) << 8;
  acc += tail;
  acc += acc < tail ? 1 : 0;
  return acc;
}

std::uint16_t fold(std::uint64_t acc) {
  while (acc >> 16) acc = (acc & 0xffff) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc & 0xffff);
}
}  // namespace

std::uint16_t internet_checksum(BytesView data) { return fold(sum16(data, 0)); }

std::uint16_t transport_checksum_v4(Ipv4Address src, Ipv4Address dst,
                                    std::uint8_t protocol, BytesView segment) {
  std::uint64_t acc = 0;
  acc += src.value() >> 16;
  acc += src.value() & 0xffff;
  acc += dst.value() >> 16;
  acc += dst.value() & 0xffff;
  acc += protocol;
  acc += segment.size();
  return fold(sum16(segment, acc));
}

std::uint16_t transport_checksum_v6(const Ipv6Address& src,
                                    const Ipv6Address& dst,
                                    std::uint8_t next_header,
                                    BytesView segment) {
  std::uint64_t acc = 0;
  const auto add16 = [&](const std::array<std::uint8_t, 16>& b) {
    for (int i = 0; i < 16; i += 2)
      acc += (static_cast<std::uint64_t>(b[static_cast<std::size_t>(i)]) << 8) |
             b[static_cast<std::size_t>(i + 1)];
  };
  add16(src.bytes());
  add16(dst.bytes());
  acc += segment.size();
  acc += next_header;
  return fold(sum16(segment, acc));
}

}  // namespace roomnet
