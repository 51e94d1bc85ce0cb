// Byte-level building blocks of every codec in roomnet. All multi-byte
// integers are big-endian (network order) unless the _le variants are used
// (pcap headers are little-endian on disk).
//
// Fixed-size wire headers (netcore/packet.hpp) are written through one
// reservation — ByteWriter::grow() — and read after one length check, with
// load_be*/store_be* on raw pointers. ByteReader serves the variable-length
// walks of the app-layer decoders (DNS, DHCP, TLS, ...), where each field's
// presence depends on the ones before it.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace roomnet {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Big-endian loads and stores at a raw pointer; the caller has checked the
/// bounds. Each is one unaligned word access plus a byte swap.
inline std::uint16_t load_be16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::little ? __builtin_bswap16(v) : v;
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::little ? __builtin_bswap32(v) : v;
}
inline std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return std::endian::native == std::endian::little ? __builtin_bswap64(v) : v;
}
inline void store_be16(std::uint8_t* p, std::uint16_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap16(v);
  std::memcpy(p, &v, sizeof v);
}
inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof v);
}
inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}
inline void store_le16(std::uint8_t* p, std::uint16_t v) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap16(v);
  std::memcpy(p, &v, sizeof v);
}
inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  std::memcpy(p, &v, sizeof v);
}

/// Sequentially reads integers/blobs from an immutable byte span: the walker
/// of the variable-length app-layer formats. Reads past the end do not throw: they return std::nullopt and mark the
/// reader as failed, so parsers can check once at the end (monadic style).
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const {
    return ok_ ? data_.size() - offset_ : 0;
  }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }

  std::optional<std::uint8_t> u8() {
    if (!require(1)) return std::nullopt;
    return data_[offset_++];
  }
  std::optional<std::uint16_t> u16() {
    if (!require(2)) return std::nullopt;
    std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[offset_]) << 8) | data_[offset_ + 1]);
    offset_ += 2;
    return v;
  }
  std::optional<std::uint32_t> u32() {
    if (!require(4)) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[offset_ + static_cast<std::size_t>(i)];
    offset_ += 4;
    return v;
  }
  std::optional<std::uint64_t> u64() {
    if (!require(8)) return std::nullopt;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[offset_ + static_cast<std::size_t>(i)];
    offset_ += 8;
    return v;
  }
  std::optional<std::uint16_t> u16_le() {
    if (!require(2)) return std::nullopt;
    std::uint16_t v = static_cast<std::uint16_t>(
        data_[offset_] | (static_cast<std::uint16_t>(data_[offset_ + 1]) << 8));
    offset_ += 2;
    return v;
  }
  std::optional<std::uint32_t> u32_le() {
    if (!require(4)) return std::nullopt;
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data_[offset_ + static_cast<std::size_t>(i)];
    offset_ += 4;
    return v;
  }

  /// Returns a view over the next n bytes without copying.
  std::optional<BytesView> view(std::size_t n) {
    if (!require(n)) return std::nullopt;
    BytesView v = data_.subspan(offset_, n);
    offset_ += n;
    return v;
  }
  std::optional<Bytes> bytes(std::size_t n) {
    auto v = view(n);
    if (!v) return std::nullopt;
    return Bytes(v->begin(), v->end());
  }
  std::optional<std::string> str(std::size_t n) {
    auto v = view(n);
    if (!v) return std::nullopt;
    return std::string(reinterpret_cast<const char*>(v->data()), v->size());
  }
  bool skip(std::size_t n) { return require(n) && ((offset_ += n), true); }

  /// Absolute reposition (used by DNS name decompression). Fails if out of
  /// bounds; does not clear a previous failure.
  bool seek(std::size_t absolute) {
    if (absolute > data_.size()) {
      ok_ = false;
      return false;
    }
    offset_ = absolute;
    return ok_;
  }

  [[nodiscard]] BytesView rest() const {
    return ok_ ? data_.subspan(offset_) : BytesView{};
  }

 private:
  bool require(std::size_t n) {
    if (!ok_ || data_.size() - offset_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  BytesView data_;
  std::size_t offset_ = 0;
  bool ok_ = true;
};

/// Appends integers/blobs to a growing byte vector.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes into `buffer` from its start. Its capacity is kept, so a
  /// recycled buffer takes no allocation for writes that fit.
  explicit ByteWriter(Bytes buffer) : out_(std::move(buffer)) { out_.clear(); }

  /// Pre-sizes the output buffer. Encoders that know the final wire length
  /// (header + payload) call this once up front so the hot path does a
  /// single allocation instead of log2(n) grow-and-copy cycles.
  ByteWriter& reserve(std::size_t n) {
    out_.reserve(n);
    return *this;
  }

  /// Appends `n` zero bytes and returns where they start: a fixed header
  /// takes one size-and-capacity step, then its fields are stored directly.
  /// The pointer is valid until the next write.
  std::uint8_t* grow(std::size_t n) {
    const std::size_t at = out_.size();
    out_.resize(at + n);
    return out_.data() + at;
  }

  ByteWriter& u8(std::uint8_t v) {
    out_.push_back(v);
    return *this;
  }
  ByteWriter& u16(std::uint16_t v) {
    store_be16(grow(2), v);
    return *this;
  }
  ByteWriter& u32(std::uint32_t v) {
    store_be32(grow(4), v);
    return *this;
  }
  ByteWriter& u64(std::uint64_t v) {
    store_be64(grow(8), v);
    return *this;
  }
  ByteWriter& u16_le(std::uint16_t v) {
    store_le16(grow(2), v);
    return *this;
  }
  ByteWriter& u32_le(std::uint32_t v) {
    store_le32(grow(4), v);
    return *this;
  }
  ByteWriter& raw(BytesView v) {
    out_.insert(out_.end(), v.begin(), v.end());
    return *this;
  }
  ByteWriter& raw(const Bytes& v) { return raw(BytesView(v)); }
  ByteWriter& str(std::string_view s) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
    out_.insert(out_.end(), p, p + s.size());
    return *this;
  }
  ByteWriter& fill(std::uint8_t value, std::size_t n) {
    out_.insert(out_.end(), n, value);
    return *this;
  }

  /// Overwrites previously written bytes (e.g. a length field patched after
  /// the body is known). `at + 2/4` must be within what was already written.
  void patch_u16(std::size_t at, std::uint16_t v) {
    (void)out_.at(at + 1);  // throws std::out_of_range past the end
    store_be16(out_.data() + at, v);
  }
  void patch_u32(std::size_t at, std::uint32_t v) {
    (void)out_.at(at + 3);
    store_be32(out_.data() + at, v);
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] const Bytes& data() const { return out_; }
  Bytes take() { return std::move(out_); }

 private:
  Bytes out_;
};

/// Lowercase hex dump ("deadbeef") of a byte span.
std::string to_hex(BytesView data);

/// Parses a hex string (whitespace ignored). Returns nullopt on odd length or
/// non-hex characters.
std::optional<Bytes> from_hex(std::string_view hex);

/// Bytes from a string literal, convenience for tests and payload templates.
inline Bytes bytes_of(std::string_view s) {
  return Bytes(s.begin(), s.end());
}
inline std::string string_of(BytesView v) {
  return std::string(reinterpret_cast<const char*>(v.data()), v.size());
}

/// Standard base64 encoding (no line wrapping); used by the AppDynamics SDK
/// model which exfiltrates base64-encoded SSIDs (paper §6.2).
std::string base64_encode(BytesView data);
std::optional<Bytes> base64_decode(std::string_view text);

}  // namespace roomnet
