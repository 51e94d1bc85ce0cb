// DNS / Multicast DNS (RFC 1035 / RFC 6762) message codec with name
// compression. mDNS is the paper's central discovery protocol: 44% of lab
// devices use it, and its hostnames embed MAC addresses, device IDs, serial
// numbers, and user display names (§5.1) — the raw material of the household
// fingerprinting analysis (§6.3).
#pragma once

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netcore/address.hpp"
#include "netcore/bytes.hpp"

namespace roomnet {

/// A domain name as ordered labels, e.g. {"Philips Hue - 685F61", "_hue",
/// "_tcp", "local"}. Labels may contain arbitrary bytes (mDNS instance names
/// contain spaces and punctuation).
struct DnsName {
  std::vector<std::string> labels;

  [[nodiscard]] std::string to_string() const;  // dot-joined
  static DnsName from_string(std::string_view dotted);

  friend bool operator==(const DnsName&, const DnsName&) = default;
};

enum class DnsType : std::uint16_t {
  kA = 1,
  kPtr = 12,
  kTxt = 16,
  kAaaa = 28,
  kSrv = 33,
  kNsec = 47,
  kAny = 255,
};

struct DnsQuestion {
  DnsName name;
  DnsType type = DnsType::kAny;
  /// mDNS QU bit: unicast response requested.
  bool unicast_response = false;
};

struct SrvData {
  std::uint16_t priority = 0;
  std::uint16_t weight = 0;
  std::uint16_t port = 0;
  DnsName target;
};

struct DnsRecord {
  DnsName name;
  DnsType type = DnsType::kA;
  /// mDNS cache-flush bit.
  bool cache_flush = false;
  std::uint32_t ttl = 120;
  /// Raw rdata as stored on the wire (PTR/SRV targets re-encoded without
  /// compression for simplicity).
  Bytes rdata;

  // Typed accessors (nullopt if the rdata does not parse as that type).
  [[nodiscard]] std::optional<Ipv4Address> a() const;
  [[nodiscard]] std::optional<Ipv6Address> aaaa() const;
  [[nodiscard]] std::optional<DnsName> ptr() const;
  [[nodiscard]] std::optional<SrvData> srv() const;
  [[nodiscard]] std::vector<std::string> txt() const;

  // Typed builders.
  static DnsRecord make_a(DnsName name, Ipv4Address ip, std::uint32_t ttl = 120);
  static DnsRecord make_aaaa(DnsName name, const Ipv6Address& ip,
                             std::uint32_t ttl = 120);
  static DnsRecord make_ptr(DnsName name, const DnsName& target,
                            std::uint32_t ttl = 4500);
  static DnsRecord make_srv(DnsName name, const SrvData& srv,
                            std::uint32_t ttl = 120);
  static DnsRecord make_txt(DnsName name, const std::vector<std::string>& kv,
                            std::uint32_t ttl = 4500);
};

struct DnsMessage {
  std::uint16_t id = 0;  // always 0 in mDNS
  bool is_response = false;
  bool authoritative = false;
  std::vector<DnsQuestion> questions;
  std::vector<DnsRecord> answers;
  std::vector<DnsRecord> authority;
  std::vector<DnsRecord> additional;
};

inline constexpr std::uint16_t kMdnsPort = 5353;
inline constexpr Ipv4Address kMdnsGroupV4 = Ipv4Address(224, 0, 0, 251);

// ------------------------------------------------------------------- views
//
// A DnsView reads a message in place: names, rdata and TXT strings are
// slices of the bytes view_dns accepted, valid while those bytes are (for a
// frame's payload, one delivery). Copy what you keep: to_string, to_name,
// to_record and to_message make owning copies.

struct DnsWire;  // the walker that builds views (dns.cpp)

/// A name inside a message view_dns accepted: where it starts. Walking its
/// labels follows the compression pointers the walk already checked.
class DnsNameView {
 public:
  DnsNameView() = default;  // the empty name

  /// Calls `f(std::string_view label)` for each label, in order.
  template <class F>
  void for_each_label(F&& f) const {
    if (base_ == nullptr) return;
    const std::uint8_t* p = base_ + offset_;
    for (;;) {
      if ((*p & 0xc0) == 0xc0) {
        p = base_ + ((static_cast<std::size_t>(*p & 0x3f) << 8) | p[1]);
        continue;
      }
      if (*p == 0) return;
      f(std::string_view(reinterpret_cast<const char*>(p + 1), *p));
      p += 1 + *p;
    }
  }
  [[nodiscard]] std::string to_string() const;  // dot-joined
  [[nodiscard]] DnsName to_name() const;
  /// True when the dot-joined name equals `dotted` up to ASCII case, the
  /// way mDNS compares names (RFC 6762 §16). Builds no string.
  [[nodiscard]] bool iequals(std::string_view dotted) const;

 private:
  friend struct DnsWire;
  DnsNameView(const std::uint8_t* base, std::size_t offset)
      : base_(base), offset_(offset) {}
  const std::uint8_t* base_ = nullptr;  // the whole message
  std::size_t offset_ = 0;
};

struct DnsQuestionView {
  DnsNameView name;
  DnsType type = DnsType::kAny;
  bool unicast_response = false;
};

struct SrvView {
  std::uint16_t priority = 0;
  std::uint16_t weight = 0;
  std::uint16_t port = 0;
  DnsNameView target;
};

struct DnsRecordView {
  DnsNameView name;
  DnsType type = DnsType::kA;
  bool cache_flush = false;
  std::uint32_t ttl = 0;
  /// rdata as on the wire: a PTR/SRV target in it may point elsewhere in
  /// the message (read it through ptr()/srv()).
  BytesView rdata;

  // Typed accessors (nullopt if the record is not of that type).
  [[nodiscard]] std::optional<Ipv4Address> a() const;
  [[nodiscard]] std::optional<Ipv6Address> aaaa() const;
  [[nodiscard]] std::optional<DnsNameView> ptr() const;
  [[nodiscard]] std::optional<SrvView> srv() const;
  /// Calls `f(std::string_view)` for each TXT string of a TXT record, up to
  /// the first one that runs past the rdata (DnsRecord::txt's rule).
  template <class F>
  void for_each_txt(F&& f) const {
    if (type != DnsType::kTxt) return;
    for (std::size_t at = 0; at < rdata.size();) {
      const std::size_t len = rdata[at];
      if (rdata.size() - at - 1 < len) return;
      f(std::string_view(reinterpret_cast<const char*>(rdata.data() + at + 1),
                         len));
      at += 1 + len;
    }
  }
  /// The owning record decode_dns returns: a PTR/SRV target decompressed.
  [[nodiscard]] DnsRecord to_record() const;
};

/// One section of a DnsView: its entries, read in order on iteration.
template <class Entry>
class DnsSection {
 public:
  class Iterator {
   public:
    using value_type = Entry;
    using difference_type = std::ptrdiff_t;
    const Entry& operator*() const { return entry_; }
    const Entry* operator->() const { return &entry_; }
    Iterator& operator++();
    bool operator==(std::default_sentinel_t) const { return left_ == 0; }

   private:
    friend class DnsSection;
    const std::uint8_t* base_ = nullptr;
    std::size_t next_ = 0;
    std::uint16_t left_ = 0;
    Entry entry_;
  };

  DnsSection() = default;
  [[nodiscard]] Iterator begin() const;
  [[nodiscard]] std::default_sentinel_t end() const { return {}; }
  [[nodiscard]] std::size_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] Entry front() const { return *begin(); }  // requires !empty()

 private:
  friend struct DnsWire;
  DnsSection(const std::uint8_t* base, std::size_t offset, std::uint16_t count)
      : base_(base), offset_(offset), count_(count) {}
  const std::uint8_t* base_ = nullptr;
  std::size_t offset_ = 0;
  std::uint16_t count_ = 0;
};

/// A DNS/mDNS message read in place by view_dns.
struct DnsView {
  std::uint16_t id = 0;
  bool is_response = false;
  bool authoritative = false;
  DnsSection<DnsQuestionView> questions;
  DnsSection<DnsRecordView> answers;
  DnsSection<DnsRecordView> authority;
  DnsSection<DnsRecordView> additional;

  [[nodiscard]] DnsMessage to_message() const;
};

/// Encodes with name compression: a name suffix already written is replaced
/// by a pointer to its first occurrence. Empty labels are dropped (a zero
/// length byte would end the name); labels over 63 bytes are cut to 63.
Bytes encode_dns(const DnsMessage& msg);
/// The one validating walk: checks every name (compression pointers with
/// loop protection, at most 128 labels of at most 63 bytes), every record
/// and every PTR/SRV target, and returns the message as slices of `raw`.
/// Counts one decode in roomnet_proto_decodes_total{proto="dns"}.
std::optional<DnsView> view_dns(BytesView raw);
/// view_dns, then an owning copy of the message.
std::optional<DnsMessage> decode_dns(BytesView raw);

}  // namespace roomnet
