// Unit tests for the application-protocol codecs.
#include <gtest/gtest.h>

#include <cctype>
#include <climits>
#include <map>
#include <set>

#include "netcore/packet_view.hpp"
#include "netcore/pcap.hpp"
#include "netcore/rng.hpp"
#include "proto/coap.hpp"
#include "proto/dhcp.hpp"
#include "proto/dns.hpp"
#include "proto/http.hpp"
#include "proto/json.hpp"
#include "proto/dhcpv6.hpp"
#include "proto/matter.hpp"
#include "proto/media.hpp"
#include "proto/netbios.hpp"
#include "proto/ssdp.hpp"
#include "proto/tls.hpp"
#include "proto/tplink.hpp"
#include "proto/tuya.hpp"
#include "telemetry/metrics.hpp"
#include "reference_decoders.hpp"
#include "reference_encoders.hpp"

namespace roomnet {
namespace {

// -------------------------------------------------------------------- JSON

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json::parse("null")->is_null());
  EXPECT_EQ(json::parse("true")->as_bool(), true);
  EXPECT_EQ(json::parse("false")->as_bool(), false);
  EXPECT_DOUBLE_EQ(json::parse("42")->as_number(), 42.0);
  EXPECT_DOUBLE_EQ(json::parse("-3.5")->as_number(), -3.5);
  EXPECT_EQ(json::parse("\"hi\"")->as_string(), "hi");
}

TEST(Json, ParsesNested) {
  const auto v = json::parse(R"({"a":[1,2,{"b":"c"}],"d":{"e":null}})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->is_object());
  const auto* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[2].find("b")->as_string(), "c");
  EXPECT_TRUE(v->find_path("d.e")->is_null());
  EXPECT_EQ(v->find_path("d.missing"), nullptr);
}

TEST(Json, EscapesRoundTrip) {
  json::Object o;
  o.emplace("s", "line\nquote\"back\\slash\ttab");
  const json::Value v{std::move(o)};
  const auto back = json::parse(v.dump());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, v);
}

TEST(Json, UnicodeEscapes) {
  const auto v = json::parse(R"("Aé")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "A\xc3\xa9");
}

TEST(Json, RejectsMalformed) {
  EXPECT_EQ(json::parse("{"), std::nullopt);
  EXPECT_EQ(json::parse("[1,2,"), std::nullopt);
  EXPECT_EQ(json::parse("{\"a\":}"), std::nullopt);
  EXPECT_EQ(json::parse("tru"), std::nullopt);
  EXPECT_EQ(json::parse("1 2"), std::nullopt);
  EXPECT_EQ(json::parse("\"unterminated"), std::nullopt);
}

TEST(Json, RejectsPathologicalNesting) {
  // A few KiB of '[' used to recurse once per bracket and overflow the
  // stack; the parser now rejects anything nested deeper than its cap.
  std::string bomb(100000, '[');
  EXPECT_EQ(json::parse(bomb), std::nullopt);
  std::string closed = std::string(100000, '[') + std::string(100000, ']');
  EXPECT_EQ(json::parse(closed), std::nullopt);
  std::string objects;
  for (int i = 0; i < 50000; ++i) objects += "{\"a\":";
  EXPECT_EQ(json::parse(objects), std::nullopt);
  // Sane nesting still parses.
  std::string ok = std::string(32, '[') + "1" + std::string(32, ']');
  EXPECT_TRUE(json::parse(ok).has_value());
}

TEST(Json, DumpIsDeterministic) {
  json::Object o;
  o.emplace("z", 1);
  o.emplace("a", 2);
  EXPECT_EQ(json::Value(std::move(o)).dump(), R"({"a":2,"z":1})");
}

// -------------------------------------------------------------------- DHCP

TEST(Dhcp, RequestRoundTrip) {
  DhcpMessage m;
  m.is_request = true;
  m.xid = 0xdeadbeef;
  m.client_mac = MacAddress::parse("02:a0:00:aa:bb:cc").value();
  m.set_message_type(DhcpMessageType::kRequest);
  m.set_hostname("RingCamera-Pro");
  m.set_vendor_class("udhcp 1.24.2");
  m.set_parameter_request_list({1, 3, 6, 12, 15, 17, 69});
  m.add_ip_option(DhcpOption::kRequestedIp, Ipv4Address(192, 168, 10, 55));

  const auto back = decode_dhcp(BytesView(encode_dhcp(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->is_request);
  EXPECT_EQ(back->xid, 0xdeadbeefu);
  EXPECT_EQ(back->client_mac, m.client_mac);
  EXPECT_EQ(back->message_type(), DhcpMessageType::kRequest);
  EXPECT_EQ(back->hostname(), "RingCamera-Pro");
  EXPECT_EQ(back->vendor_class(), "udhcp 1.24.2");
  EXPECT_EQ(back->parameter_request_list(),
            (std::vector<std::uint8_t>{1, 3, 6, 12, 15, 17, 69}));
}

TEST(Dhcp, OfferCarriesYiaddr) {
  DhcpMessage m;
  m.is_request = false;
  m.yiaddr = Ipv4Address(192, 168, 10, 77);
  m.set_message_type(DhcpMessageType::kOffer);
  m.add_ip_option(DhcpOption::kRouter, Ipv4Address(192, 168, 10, 1));
  m.add_ip_option(DhcpOption::kDnsServer, Ipv4Address(192, 168, 10, 1));
  const auto back = decode_dhcp(BytesView(encode_dhcp(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->is_request);
  EXPECT_EQ(back->yiaddr, m.yiaddr);
  ASSERT_NE(back->find_option(DhcpOption::kRouter), nullptr);
}

TEST(Dhcp, RejectsBadCookie) {
  DhcpMessage m;
  m.set_message_type(DhcpMessageType::kDiscover);
  Bytes raw = encode_dhcp(m);
  raw[236] ^= 0xff;  // corrupt magic cookie
  EXPECT_EQ(decode_dhcp(BytesView(raw)), std::nullopt);
}

TEST(Dhcp, RejectsTruncatedOptions) {
  DhcpMessage m;
  m.set_hostname("longhostname");
  Bytes raw = encode_dhcp(m);
  raw.resize(raw.size() - 6);
  EXPECT_EQ(decode_dhcp(BytesView(raw)), std::nullopt);
}

TEST(Dhcp, MissingOptionsReturnEmpty) {
  const auto back = decode_dhcp(BytesView(encode_dhcp(DhcpMessage{})));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->message_type(), std::nullopt);
  EXPECT_EQ(back->hostname(), std::nullopt);
  EXPECT_TRUE(back->parameter_request_list().empty());
}

// ------------------------------------------- differential decode corpus

/// The distinct app payloads of the committed capture: every UDP payload,
/// and every TCP or UDP payload that looks like HTTP.
struct CorpusPayloads {
  std::vector<Bytes> udp;
  std::vector<Bytes> http;
};

const CorpusPayloads& corpus_payloads() {
  static const CorpusPayloads corpus = [] {
    std::set<Bytes> udp, http;
    const auto records = read_pcap_file(ROOMNET_QUICKSTART_PCAP);
    if (records) {
      for (const PcapRecord& record : *records) {
        const auto view = decode_frame_view(BytesView(record.frame));
        if (!view || !view->has_transport()) continue;
        const BytesView payload = view->app_payload();
        if (view->udp) udp.emplace(payload.begin(), payload.end());
        if (looks_like_http(payload)) http.emplace(payload.begin(), payload.end());
      }
    }
    return CorpusPayloads{{udp.begin(), udp.end()}, {http.begin(), http.end()}};
  }();
  return corpus;
}

/// Offsets of every occurrence of any byte of `set` in `b`.
std::vector<std::size_t> offsets_of(const Bytes& b, std::string_view set) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < b.size(); ++i)
    if (set.find(static_cast<char>(b[i])) != std::string_view::npos)
      out.push_back(i);
  return out;
}

/// One seeded text-level damage: truncation, a damaged CRLF or colon, a bare
/// \n, NUL bytes, a rewritten MX value (out of int range included), a case
/// flip, a duplicated line or a stray delimiter.
void mutate_http(Bytes& b, Rng& rng) {
  const auto pick = [&](const std::vector<std::size_t>& at) {
    return at.empty() ? std::optional<std::size_t>{}
                      : std::optional<std::size_t>{at[rng.below(at.size())]};
  };
  const auto at = [&](std::size_t i) {
    return b.begin() + static_cast<std::ptrdiff_t>(i);
  };
  switch (rng.below(9)) {
    case 0:
      b.resize(rng.below(b.size() + 1));
      break;
    case 1:
      if (const auto i = pick(offsets_of(b, "\r\n"))) {
        if (rng.below(2)) b.erase(at(*i));
        else b[*i] = static_cast<std::uint8_t>(" x\r\n"[rng.below(4)]);
      }
      break;
    case 2:
      if (const auto i = pick(offsets_of(b, ":"))) {
        if (rng.below(2)) b.erase(at(*i));
        else b[*i] = ' ';
      }
      break;
    case 3:
      if (const auto i = pick(offsets_of(b, "\r")); i && *i + 1 < b.size())
        b.erase(at(*i));
      break;
    case 4:
      if (rng.below(2) || b.empty()) b.insert(at(rng.below(b.size() + 1)), 0);
      else b[rng.below(b.size())] = 0;
      break;
    case 5: {
      std::string text(b.begin(), b.end());
      std::string upper = text;
      for (char& c : upper) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      const auto mx = upper.find("\r\nMX:");
      if (mx == std::string::npos) break;
      const auto eol = text.find("\r\n", mx + 2);
      std::string value = std::string(rng.below(3), " \t"[rng.below(2)]);
      if (rng.below(2)) value += "+-"[rng.below(2)];
      for (std::uint64_t n = rng.below(24); n > 0; --n)
        value += static_cast<char>('0' + rng.below(10));
      if (rng.below(2)) value += "x5";
      text.replace(mx + 5, eol == std::string::npos ? std::string::npos
                                                    : eol - (mx + 5),
                   value);
      b.assign(text.begin(), text.end());
      break;
    }
    case 6:
      if (const auto i = pick(offsets_of(
              b, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")))
        b[*i] ^= 0x20;
      break;
    case 7:
      if (const auto i = pick(offsets_of(b, "\n")); i && *i + 1 < b.size()) {
        const std::string text(b.begin(), b.end());
        const auto eol = text.find("\r\n", *i + 1);
        if (eol != std::string::npos)
          b.insert(at(*i + 1), text.begin() + static_cast<std::ptrdiff_t>(*i + 1),
                   text.begin() + static_cast<std::ptrdiff_t>(eol + 2));
      }
      break;
    default: {
      constexpr std::string_view kDelimiters = " :\r\n0123456789HTTP/";
      if (!b.empty())
        b[rng.below(b.size())] = static_cast<std::uint8_t>(
            kDelimiters[rng.below(kDelimiters.size())]);
      break;
    }
  }
}

/// One seeded wire-level damage: truncation, a compression pointer to any
/// offset in or just past the message, a label-length byte (valid or over
/// 63), a section count, a u16 in the record area, or a plain byte.
void mutate_dns(Bytes& b, Rng& rng) {
  if (b.empty()) return;
  const auto put_u16 = [&](std::size_t i, std::uint16_t v) {
    if (i + 2 > b.size()) return;
    b[i] = static_cast<std::uint8_t>(v >> 8);
    b[i + 1] = static_cast<std::uint8_t>(v);
  };
  switch (rng.below(6)) {
    case 0:
      b.resize(rng.below(b.size() + 1));
      break;
    case 1:
      put_u16(12 + rng.below(b.size()),
              static_cast<std::uint16_t>(0xc000 | rng.below(b.size() + 4)));
      break;
    case 2:
      b[rng.below(b.size())] = static_cast<std::uint8_t>(
          rng.below(2) ? rng.below(64) : 0x40 + rng.below(0xc0));
      break;
    case 3:
      put_u16(4 + 2 * rng.below(4), static_cast<std::uint16_t>(rng.below(8)));
      break;
    case 4:
      put_u16(12 + rng.below(b.size()), static_cast<std::uint16_t>(rng.below(0x10000)));
      break;
    default:
      b[rng.below(b.size())] = static_cast<std::uint8_t>(rng.below(256));
      break;
  }
}

// --------------------------------------------------------------------- DNS

TEST(DnsName, StringConversion) {
  const auto name = DnsName::from_string("_hue._tcp.local");
  EXPECT_EQ(name.labels,
            (std::vector<std::string>{"_hue", "_tcp", "local"}));
  EXPECT_EQ(name.to_string(), "_hue._tcp.local");
}

TEST(Dns, QueryRoundTrip) {
  DnsMessage m;
  DnsQuestion q;
  q.name = DnsName::from_string("_googlecast._tcp.local");
  q.type = DnsType::kPtr;
  q.unicast_response = true;
  m.questions.push_back(q);
  const auto back = decode_dns(BytesView(encode_dns(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->is_response);
  ASSERT_EQ(back->questions.size(), 1u);
  EXPECT_EQ(back->questions[0].name.to_string(), "_googlecast._tcp.local");
  EXPECT_EQ(back->questions[0].type, DnsType::kPtr);
  EXPECT_TRUE(back->questions[0].unicast_response);
}

TEST(Dns, FullServiceAdvertisementRoundTrip) {
  // A realistic mDNS advertisement: PTR + SRV + TXT + A, as a Philips Hue
  // bridge would answer (Table 5).
  DnsMessage m;
  m.is_response = true;
  m.authoritative = true;
  const auto service = DnsName::from_string("_hue._tcp.local");
  const auto instance = DnsName::from_string("Philips Hue - 685F61._hue._tcp.local");
  const auto host = DnsName::from_string("Philips-hue.local");
  m.answers.push_back(DnsRecord::make_ptr(service, instance));
  SrvData srv;
  srv.port = 443;
  srv.target = host;
  m.answers.push_back(DnsRecord::make_srv(instance, srv));
  m.answers.push_back(DnsRecord::make_txt(
      instance, {"bridgeid=001788fffe685f61", "modelid=BSB002"}));
  m.additional.push_back(DnsRecord::make_a(host, Ipv4Address(192, 168, 10, 12)));

  const Bytes raw = encode_dns(m);
  const auto back = decode_dns(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->is_response);
  ASSERT_EQ(back->answers.size(), 3u);
  ASSERT_EQ(back->additional.size(), 1u);

  const auto ptr = back->answers[0].ptr();
  ASSERT_TRUE(ptr.has_value());
  EXPECT_EQ(ptr->to_string(), instance.to_string());

  const auto srv_back = back->answers[1].srv();
  ASSERT_TRUE(srv_back.has_value());
  EXPECT_EQ(srv_back->port, 443);
  EXPECT_EQ(srv_back->target.to_string(), "Philips-hue.local");

  const auto txt = back->answers[2].txt();
  ASSERT_EQ(txt.size(), 2u);
  EXPECT_EQ(txt[0], "bridgeid=001788fffe685f61");

  const auto a = back->additional[0].a();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, Ipv4Address(192, 168, 10, 12));
}

TEST(Dns, CompressionShrinksRepeatedSuffixes) {
  DnsMessage m;
  m.is_response = true;
  for (int i = 0; i < 6; ++i) {
    m.answers.push_back(DnsRecord::make_ptr(
        DnsName::from_string("_services._dns-sd._udp.local"),
        DnsName::from_string("_instance" + std::to_string(i) + "._tcp.local")));
  }
  const Bytes compressed = encode_dns(m);
  // The shared "._udp.local" suffix should be written once; a rough bound
  // confirms pointers are in use.
  std::size_t plain_estimate = 0;
  for (const auto& rec : m.answers)
    plain_estimate += rec.name.to_string().size() + rec.rdata.size() + 12;
  EXPECT_LT(compressed.size(), plain_estimate);
  const auto back = decode_dns(BytesView(compressed));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->answers.size(), 6u);
  EXPECT_EQ(back->answers[3].name.to_string(), "_services._dns-sd._udp.local");
}

TEST(Dns, RejectsPointerLoop) {
  // Craft a message whose name is a self-referencing compression pointer.
  ByteWriter w;
  w.u16(0).u16(0).u16(1).u16(0).u16(0).u16(0);  // header: one question
  w.u8(0xc0).u8(0x0c);  // pointer to itself (offset 12)
  w.u16(1).u16(1);
  EXPECT_EQ(decode_dns(BytesView(w.data())), std::nullopt);
}

TEST(Dns, RejectsTruncatedRecord) {
  DnsMessage m;
  m.is_response = true;
  m.answers.push_back(
      DnsRecord::make_a(DnsName::from_string("x.local"), Ipv4Address(1, 2, 3, 4)));
  Bytes raw = encode_dns(m);
  raw.resize(raw.size() - 2);
  EXPECT_EQ(decode_dns(BytesView(raw)), std::nullopt);
}

TEST(Dns, AaaaRoundTrip) {
  const auto ip = Ipv6Address::parse("fe80::a:b:c:d").value();
  const auto rec = DnsRecord::make_aaaa(DnsName::from_string("h.local"), ip);
  EXPECT_EQ(rec.aaaa(), ip);
  EXPECT_EQ(rec.a(), std::nullopt);
}

/// A response whose question name, answer name and PTR target each reach a
/// one-label name through `jumps` compression pointers.
Bytes pointer_chain_message(int jumps) {
  constexpr std::uint16_t kChain = 32;  // offset of the first chain node
  ByteWriter w;
  w.u16(0).u16(0x8400).u16(1).u16(1).u16(0).u16(0);
  w.u16(0xc000 | kChain).u16(12).u16(1);                    // question
  w.u16(0xc000 | kChain).u16(12).u16(1).u32(120).u16(2);  // PTR answer
  w.u16(0xc000 | kChain);                                   // its rdata
  for (int i = 1; i < jumps; ++i)
    w.u16(static_cast<std::uint16_t>(0xc000 | (kChain + 2 * i)));
  w.u8(1).str("x").u8(0);
  return w.take();
}

/// A response whose question name and PTR target are `labels` labels of
/// `label_size` bytes each, uncompressed.
Bytes long_name_message(int labels, int label_size) {
  ByteWriter name;
  for (int i = 0; i < labels; ++i)
    name.u8(static_cast<std::uint8_t>(label_size))
        .str(std::string(static_cast<std::size_t>(label_size), 'a'));
  name.u8(0);
  const Bytes n = name.take();
  ByteWriter w;
  w.u16(0).u16(0x8400).u16(1).u16(1).u16(0).u16(0);
  w.raw(n).u16(12).u16(1);
  w.u8(0).u16(12).u16(1).u32(120).u16(static_cast<std::uint16_t>(n.size()));
  w.raw(n);
  return w.take();
}

TEST(Dns, DirectRdataMatchesReadNameEncode) {
  // The limits first, at and one past each bound, in names and PTR targets:
  // 32 pointer jumps, 128 labels, 63-byte labels.
  for (const auto& [raw, accepted] :
       std::vector<std::pair<Bytes, bool>>{
           {pointer_chain_message(32), true},
           {pointer_chain_message(33), false},
           {long_name_message(128, 1), true},
           {long_name_message(129, 1), false},
           {long_name_message(2, 63), true},
           {long_name_message(2, 64), false}}) {
    const auto got = decode_dns(BytesView(raw));
    EXPECT_EQ(got.has_value(), accepted) << raw.size() << "-byte limit case";
    EXPECT_EQ(reference::dns_differs(BytesView(raw)), nullptr);
  }

  // PTR/SRV targets are decompressed straight into rdata; the old decoder
  // read them into a DnsName and re-encoded it. Every UDP payload of the
  // committed capture, and seeded damage to each, decodes the same both
  // ways: accept/reject, every label string and every rdata byte. The view
  // the owning decode is built from reads the same through its own
  // accessors (names, PTR/SRV targets, TXT strings, A/AAAA).
  const auto& corpus = corpus_payloads().udp;
  ASSERT_GT(corpus.size(), 100u);
  Rng rng(42);
  std::size_t inputs = 0, accepted = 0, targets = 0, mismatches = 0;
  const auto check = [&](const Bytes& raw) {
    ++inputs;
    const auto got = decode_dns(BytesView(raw));
    const char* diff = reference::dns_differs(BytesView(raw));
    if (diff && ++mismatches <= 5)
      ADD_FAILURE() << "dns " << diff << " differs on a " << raw.size() << "-byte input";
    if (!got) return;
    ++accepted;
    for (const auto& rec : got->answers)
      targets += rec.type == DnsType::kPtr || rec.type == DnsType::kSrv;
  };
  for (const Bytes& payload : corpus) {
    check(payload);
    for (int k = 0; k < 40; ++k) {
      Bytes mutated = payload;
      for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) mutate_dns(mutated, rng);
      check(mutated);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << inputs << " inputs";
  EXPECT_GT(accepted, corpus.size() / 4);
  EXPECT_GT(targets, 100u);  // the PTR/SRV path is exercised
}

/// Messages the encoder must write exactly as the map-keyed encoder did:
/// compression across sections, PTR/SRV/TXT/A/AAAA records, the DNS-SD
/// meta-query, labels at and over 63 bytes, and a name that is a suffix of
/// an earlier one.
std::vector<DnsMessage> encoder_cases() {
  std::vector<DnsMessage> cases;
  DnsMessage meta;
  for (const char* type :
       {"_services._dns-sd._udp.local", "_googlecast._tcp.local",
        "_hue._tcp.local", "_airplay._tcp.local"})
    meta.questions.push_back({DnsName::from_string(type), DnsType::kPtr, false});
  meta.questions.push_back({DnsName::from_string("local"), DnsType::kAny, true});
  cases.push_back(meta);

  for (const bool v6 : {false, true}) {
    reference::AnswerService service{"Philips Hue - 685F61", "_hue._tcp.local",
                                     443, {"bridgeid=001788fffe685f61", "", "x"}};
    cases.push_back(reference::build_answer(
        service, "Philips-hue.local", Ipv4Address(192, 168, 10, 12),
        v6 ? std::optional(Ipv6Address::link_local_from_mac(
                 MacAddress::from_u64(0x02a005000001ull)))
           : std::nullopt));
    service.txt.clear();
    cases.push_back(reference::build_answer(service, "hue.local",
                                            Ipv4Address(10, 0, 0, 1),
                                            std::nullopt));
  }

  DnsMessage mixed;
  mixed.id = 0x7001;
  mixed.is_response = true;
  const auto long_label = std::string(63, 'a');
  const auto over_long = std::string(70, 'b');
  mixed.questions.push_back({DnsName::from_string("version.bind"), DnsType::kTxt, false});
  mixed.answers.push_back(DnsRecord::make_txt(DnsName::from_string("version.bind"),
                                              {"dnsmasq-2.80"}));
  mixed.answers.push_back(DnsRecord::make_a(
      DnsName::from_string(long_label + ".example.com"), Ipv4Address(1, 2, 3, 4)));
  mixed.authority.push_back(DnsRecord::make_ptr(
      DnsName::from_string("example.com"),
      DnsName::from_string(over_long + ".example.com")));
  mixed.authority.push_back(DnsRecord::make_aaaa(
      DnsName::from_string(over_long + ".com"),
      Ipv6Address::link_local_from_mac(MacAddress::from_u64(1))));
  SrvData srv;
  srv.priority = 1;
  srv.weight = 2;
  srv.port = 8009;
  srv.target = DnsName::from_string("host.example.com");
  mixed.additional.push_back(
      DnsRecord::make_srv(DnsName::from_string("x._tcp.example.com"), srv));
  mixed.additional.push_back(DnsRecord::make_a(DnsName::from_string("com"),
                                               Ipv4Address(5, 6, 7, 8)));
  mixed.additional.push_back(DnsRecord::make_a(DnsName{}, Ipv4Address(9, 9, 9, 9)));
  cases.push_back(mixed);
  return cases;
}

TEST(Dns, EncoderMatchesMapKeyedEncoderByteForByte) {
  // Names are compressed against the bytes already written, not a map of
  // joined suffixes; the output is the same. Beyond the cases above, every
  // message the committed capture carries is re-encoded both ways.
  std::size_t checked = 0;
  for (const DnsMessage& msg : encoder_cases()) {
    EXPECT_EQ(to_hex(encode_dns(msg)), to_hex(reference::encode_dns(msg)))
        << "case " << checked;
    ++checked;
  }
  for (const Bytes& payload : corpus_payloads().udp) {
    const auto msg = decode_dns(BytesView(payload));
    if (!msg) continue;
    EXPECT_EQ(encode_dns(*msg), reference::encode_dns(*msg));
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}

TEST(Dns, EmptyLabelIsDroppedNotWrittenAsTerminator) {
  // A zero length byte ends a name, so an empty label used to cut the name
  // short and the rest of the message no longer parsed.
  DnsMessage m;
  m.is_response = true;
  m.answers.push_back(DnsRecord::make_a(DnsName::from_string("printer..local"),
                                        Ipv4Address(192, 168, 10, 7)));
  m.answers.push_back(DnsRecord::make_a(DnsName::from_string("scanner.local"),
                                        Ipv4Address(192, 168, 10, 8)));
  m.additional.push_back(DnsRecord::make_ptr(
      DnsName::from_string(".local"), DnsName::from_string("a..b.local.")));
  const auto back = decode_dns(BytesView(encode_dns(m)));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->answers.size(), 2u);
  EXPECT_EQ(back->answers[0].name.to_string(), "printer.local");
  EXPECT_EQ(back->answers[0].a(), Ipv4Address(192, 168, 10, 7));
  EXPECT_EQ(back->answers[1].name.to_string(), "scanner.local");
  EXPECT_EQ(back->answers[1].a(), Ipv4Address(192, 168, 10, 8));
  ASSERT_EQ(back->additional.size(), 1u);
  EXPECT_EQ(back->additional[0].name.to_string(), "local");
  EXPECT_EQ(back->additional[0].ptr()->to_string(), "a.b.local");
  // Re-encoding the decoded message is a fixpoint.
  EXPECT_EQ(encode_dns(*back), encode_dns(m));
}

TEST(DnsNameView, ComparesDottedNamesCaseInsensitively) {
  DnsMessage m;
  m.questions.push_back({DnsName::from_string("_HUE._Tcp.LOCAL"), DnsType::kPtr, false});
  m.questions.push_back({DnsName{{"a.b", "local"}}, DnsType::kPtr, false});
  m.questions.push_back({DnsName{}, DnsType::kPtr, false});
  const Bytes raw = encode_dns(m);
  const auto view = view_dns(BytesView(raw));
  ASSERT_TRUE(view.has_value());
  std::vector<DnsNameView> names;
  for (const DnsQuestionView& q : view->questions) names.push_back(q.name);
  ASSERT_EQ(names.size(), 3u);
  EXPECT_TRUE(names[0].iequals("_hue._tcp.local"));
  EXPECT_TRUE(names[0].iequals("_HUE._TCP.LOCAL"));
  EXPECT_FALSE(names[0].iequals("_hue._tcp.local."));
  EXPECT_FALSE(names[0].iequals("_hue._tcp"));
  EXPECT_FALSE(names[0].iequals("_hue._udp.local"));
  EXPECT_FALSE(names[0].iequals("_hue.__tcp.local"));
  EXPECT_EQ(names[0].to_string(), "_HUE._Tcp.LOCAL");
  // The joined form is what is compared, as the string compare did.
  EXPECT_TRUE(names[1].iequals("A.B.local"));
  EXPECT_TRUE(names[2].iequals(""));
  EXPECT_FALSE(names[2].iequals("local"));
}

TEST(Ssdp, EncoderMatchesHttpCompositionByteForByte) {
  // The head is written straight into the writer instead of through
  // HttpRequest/HttpResponse headers; every kind, with and without the
  // optional headers and with vendor extras, comes out the same.
  std::size_t checked = 0;
  for (const SsdpKind kind :
       {SsdpKind::kMSearch, SsdpKind::kNotify, SsdpKind::kResponse}) {
    for (const bool full : {false, true}) {
      SsdpMessage msg;
      msg.kind = kind;
      msg.search_target = "urn:schemas-upnp-org:device:MediaRenderer:1";
      msg.mx = full ? -17 : 2;
      if (full) {
        msg.usn = "uuid:2fac1234-31f8-11b4-a222-08002b34c003::upnp:rootdevice";
        msg.server = "Linux/3.14 UPnP/1.0 Roku/9.4.0";
        msg.location = "http://192.168.10.31:8060/dial/dd.xml";
        msg.nts = "ssdp:byebye";
        msg.extra_headers = {{"BOOTID.UPNP.ORG", "1"}, {"X-EMPTY", ""}};
      }
      EXPECT_EQ(encode_ssdp(msg), reference::encode_ssdp(msg))
          << static_cast<int>(kind) << full;
      ByteWriter w(bytes_of("stale bytes"));
      append_ssdp(msg, w);
      EXPECT_EQ(w.data(), reference::encode_ssdp(msg));
      ++checked;
    }
  }
  for (const Bytes& payload : corpus_payloads().udp) {
    const auto msg = decode_ssdp(BytesView(payload));
    if (!msg) continue;
    EXPECT_EQ(encode_ssdp(*msg), reference::encode_ssdp(*msg));
    ++checked;
  }
  EXPECT_GT(checked, 40u);  // the capture has 38 distinct SSDP payloads
}

TEST(ProtoCounters, EncodesAreCountedPerCall) {
  auto& registry = telemetry::Registry::global();
  auto& dns = registry.counter("roomnet_proto_encodes_total", {{"proto", "dns"}});
  auto& ssdp = registry.counter("roomnet_proto_encodes_total", {{"proto", "ssdp"}});
  const std::uint64_t dns_before = dns.value();
  const std::uint64_t ssdp_before = ssdp.value();
  (void)encode_dns(DnsMessage{});
  (void)encode_ssdp(SsdpMessage{});
  ByteWriter w;
  append_ssdp(SsdpMessage{}, w);
  EXPECT_EQ(dns.value() - dns_before, 1u);
  EXPECT_EQ(ssdp.value() - ssdp_before, 2u);
}

// -------------------------------------------------------------------- HTTP

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/v1/event";
  req.headers.add("Host", "events.claspws.tv");
  req.headers.add("User-Agent", "AppDynamics/6.18.3");
  req.body = bytes_of("ssid=aG9tZQ==");
  const auto back = decode_http_request(BytesView(encode_http_request(req)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->method, "POST");
  EXPECT_EQ(back->target, "/v1/event");
  EXPECT_EQ(back->headers.get("host"), "events.claspws.tv");  // case-insensitive
  EXPECT_EQ(back->headers.get("Content-Length"), "13");       // auto-added
  EXPECT_EQ(string_of(BytesView(back->body)), "ssid=aG9tZQ==");
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse res;
  res.status = 404;
  res.reason = "Not Found";
  res.headers.add("Server", "SheerDNS 1.0.0");
  const auto back = decode_http_response(BytesView(encode_http_response(res)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, 404);
  EXPECT_EQ(back->reason, "Not Found");
  EXPECT_EQ(back->headers.get("Server"), "SheerDNS 1.0.0");
}

TEST(Http, RejectsMalformed) {
  EXPECT_EQ(decode_http_request(BytesView(bytes_of("not http"))), std::nullopt);
  EXPECT_EQ(decode_http_request(BytesView(bytes_of("GET /\r\n"))), std::nullopt);
  EXPECT_EQ(decode_http_response(BytesView(bytes_of("HTTP/1.1 abc OK\r\n\r\n"))),
            std::nullopt);
}

TEST(Http, LooksLikeHttpHeuristic) {
  EXPECT_TRUE(looks_like_http(BytesView(bytes_of("GET / HTTP/1.1\r\n"))));
  EXPECT_TRUE(looks_like_http(BytesView(bytes_of("HTTP/1.1 200 OK\r\n"))));
  EXPECT_TRUE(looks_like_http(BytesView(bytes_of("M-SEARCH * HTTP/1.1\r\n"))));
  EXPECT_FALSE(looks_like_http(BytesView(bytes_of("\x16\x03\x03"))));
  EXPECT_FALSE(looks_like_http(BytesView(bytes_of(""))));
}

// -------------------------------------------------------------------- SSDP

TEST(Ssdp, MSearchRoundTrip) {
  SsdpMessage m;
  m.kind = SsdpKind::kMSearch;
  m.search_target = "ssdp:all";
  m.mx = 3;
  const auto back = decode_ssdp(BytesView(encode_ssdp(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, SsdpKind::kMSearch);
  EXPECT_EQ(back->search_target, "ssdp:all");
  EXPECT_EQ(back->mx, 3);
}

TEST(Ssdp, NotifyRoundTrip) {
  SsdpMessage m;
  m.kind = SsdpKind::kNotify;
  m.search_target = "upnp:rootdevice";
  m.usn = "uuid:device_3_0-AMC020SC43PJ749D66::upnp:rootdevice";
  m.server = "Linux, UPnP/1.0, Private UPnP SDK";
  m.location = "http://192.168.10.31:49152/description.xml";
  const auto back = decode_ssdp(BytesView(encode_ssdp(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, SsdpKind::kNotify);
  EXPECT_EQ(back->usn, m.usn);
  EXPECT_EQ(back->server, m.server);
  EXPECT_EQ(back->location, m.location);
  EXPECT_EQ(back->nts, "ssdp:alive");
}

TEST(Ssdp, ResponseRoundTrip) {
  SsdpMessage m;
  m.kind = SsdpKind::kResponse;
  m.search_target = "urn:dial-multiscreen-org:service:dial:1";
  m.usn = "uuid:12345678-1234-1234-1234-123456789abc";
  const auto back = decode_ssdp(BytesView(encode_ssdp(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->kind, SsdpKind::kResponse);
  EXPECT_EQ(back->search_target, m.search_target);
}

TEST(Ssdp, RejectsPlainHttp) {
  HttpRequest req;  // GET, not an SSDP verb
  EXPECT_EQ(decode_ssdp(BytesView(encode_http_request(req))), std::nullopt);
}

TEST(Ssdp, OnePassDecodeMatchesHttpComposition) {
  // decode_ssdp scans the head once; the old decoder composed full HTTP
  // request and response decodes. Every UDP payload and every HTTP-looking
  // payload of the committed capture, and seeded text damage to each,
  // decodes the same both ways, field for field. Only an out-of-range MX,
  // where the old atoi was undefined, skips the `mx` comparison. The HTTP
  // decoders, which now share the scanner, are compared the same way.
  const auto& corpus = corpus_payloads();
  std::vector<const Bytes*> inputs;
  for (const Bytes& b : corpus.udp) inputs.push_back(&b);
  for (const Bytes& b : corpus.http) inputs.push_back(&b);
  ASSERT_GT(corpus.http.size(), 50u);
  Rng rng(42);
  std::size_t checked = 0, mismatches = 0;
  std::map<SsdpKind, std::size_t> kinds;
  const auto check = [&](const Bytes& raw) {
    ++checked;
    const BytesView view(raw);
    for (const char* diff :
         {reference::ssdp_differs(view), reference::http_request_differs(view),
          reference::http_response_differs(view)}) {
      if (diff && ++mismatches <= 5)
        ADD_FAILURE() << diff << " differs on: "
                      << std::string(raw.begin(), raw.end());
    }
    if (const auto m = decode_ssdp(view)) ++kinds[m->kind];
  };
  for (const Bytes* payload : inputs) {
    check(*payload);
    if (!looks_like_http(BytesView(*payload))) continue;
    for (int k = 0; k < 500; ++k) {
      Bytes mutated = *payload;
      for (std::uint64_t n = 1 + rng.below(3); n > 0; --n) mutate_http(mutated, rng);
      check(mutated);
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << checked << " inputs";
  EXPECT_GT(kinds[SsdpKind::kMSearch], 0u);
  EXPECT_GT(kinds[SsdpKind::kNotify], 0u);
  EXPECT_GT(kinds[SsdpKind::kResponse], 0u);
}

TEST(Ssdp, OutOfRangeMxSaturates) {
  // MX follows atoi's rules but saturates where atoi would be undefined.
  const auto mx_of = [](const std::string& value) {
    const std::string wire = "M-SEARCH * HTTP/1.1\r\nST: ssdp:all\r\nMX: " +
                             value + "\r\n\r\n";
    const auto m = decode_ssdp(BytesView(bytes_of(wire)));
    EXPECT_TRUE(m.has_value()) << value;
    return m ? m->mx : -1;
  };
  EXPECT_EQ(mx_of("3"), 3);
  EXPECT_EQ(mx_of("\t+42 seconds"), 42);
  EXPECT_EQ(mx_of("-7"), -7);
  EXPECT_EQ(mx_of("soon"), 0);
  EXPECT_EQ(mx_of(""), 0);
  EXPECT_EQ(mx_of("2147483647"), INT_MAX);
  EXPECT_EQ(mx_of("-2147483648"), INT_MIN);
  EXPECT_EQ(mx_of("2147483648"), INT_MAX);
  EXPECT_EQ(mx_of("-2147483649"), INT_MIN);
  EXPECT_EQ(mx_of(std::string(64, '9')), INT_MAX);
  EXPECT_EQ(mx_of("-" + std::string(64, '9')), INT_MIN);
}

TEST(UpnpDescription, XmlRoundTrip) {
  UpnpDeviceDescription d;
  d.device_type = "urn:schemas-upnp-org:device:Basic:1";
  d.friendly_name = "AMC020SC43PJ749D66";
  d.manufacturer = "Amcrest";
  d.model_name = "IP2M-841";
  d.serial_number = "9c:8e:cd:0a:33:1b";  // a MAC, as the paper observed
  d.udn = "uuid:device_3_0-AMC020SC43PJ749D66";
  d.service_types = {"urn:schemas-upnp-org:service:ConnectionManager:1",
                     "urn:schemas-upnp-org:service:AVTransport:1"};
  const auto back = UpnpDeviceDescription::from_xml(d.to_xml());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->friendly_name, d.friendly_name);
  EXPECT_EQ(back->serial_number, d.serial_number);
  EXPECT_EQ(back->udn, d.udn);
  EXPECT_EQ(back->service_types, d.service_types);
}

TEST(UpnpDescription, EscapesSpecialCharacters) {
  UpnpDeviceDescription d;
  d.friendly_name = "Jane & John's <TV>";
  const auto back = UpnpDeviceDescription::from_xml(d.to_xml());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->friendly_name, "Jane & John's <TV>");
}

// ------------------------------------------------------------------ TPLINK

TEST(Tplink, CipherIsInvolutionPair) {
  const Bytes plain = bytes_of(R"({"system":{"get_sysinfo":{}}})");
  const Bytes cipher = tplink_encrypt(BytesView(plain));
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(tplink_decrypt(BytesView(cipher)), plain);
}

TEST(Tplink, KnownCipherFirstByte) {
  // First plaintext byte '{' (0x7b) XOR 171 (0xab) = 0xd0.
  const Bytes cipher = tplink_encrypt(BytesView(bytes_of("{")));
  ASSERT_EQ(cipher.size(), 1u);
  EXPECT_EQ(cipher[0], 0xd0);
}

TEST(Tplink, UdpRoundTrip) {
  const auto cmd = tplink_get_sysinfo_request();
  const auto back = decode_tplink_udp(BytesView(encode_tplink_udp(cmd)));
  ASSERT_TRUE(back.has_value());
  EXPECT_NE(back->find_path("system.get_sysinfo"), nullptr);
}

TEST(Tplink, TcpFramingRoundTrip) {
  const auto cmd = tplink_get_sysinfo_request();
  const Bytes framed = encode_tplink_tcp(cmd);
  // 4-byte length prefix.
  const std::uint32_t len = (static_cast<std::uint32_t>(framed[0]) << 24) |
                            (static_cast<std::uint32_t>(framed[1]) << 16) |
                            (static_cast<std::uint32_t>(framed[2]) << 8) |
                            framed[3];
  EXPECT_EQ(len, framed.size() - 4);
  const auto back = decode_tplink_tcp(BytesView(framed));
  ASSERT_TRUE(back.has_value());
}

TEST(Tplink, SysinfoRoundTripIncludesGeolocation) {
  TplinkSysinfo info;
  info.alias = "TP-Link Plug";
  info.dev_name = "Wi-Fi Smart Plug With Energy Monitoring";
  info.model = "HS110(EU)";
  info.device_id = "8006E8E9017F556D283C850B4E29BC1F185334E5";
  info.hw_id = "60FF6B258734EA6880E186F8C96DDC61";
  info.oem_id = "FFF22CFF774A0B89F7624BFC6F50D5DE";
  info.mac = "02:a0:03:01:02:03";
  info.latitude = 42.337681;
  info.longitude = -71.087036;
  const auto back = TplinkSysinfo::from_json(info.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->device_id, info.device_id);
  EXPECT_EQ(back->oem_id, info.oem_id);
  EXPECT_NEAR(back->latitude, 42.337681, 1e-6);
  EXPECT_NEAR(back->longitude, -71.087036, 1e-6);
}

// -------------------------------------------------------------------- Tuya

TEST(Tuya, FrameRoundTripAndCrc) {
  TuyaFrame f;
  f.seq = 7;
  f.command = 0x13;
  f.payload = bytes_of(R"({"gwId":"0123"})");
  const Bytes raw = encode_tuya_frame(f);
  const auto back = decode_tuya_frame(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, 7u);
  EXPECT_EQ(back->payload, f.payload);
}

TEST(Tuya, RejectsCorruptedCrc) {
  TuyaFrame f;
  f.payload = bytes_of("data");
  Bytes raw = encode_tuya_frame(f);
  raw[17] ^= 0x01;  // flip a payload bit; CRC no longer matches
  EXPECT_EQ(decode_tuya_frame(BytesView(raw)), std::nullopt);
}

TEST(Tuya, RejectsBadPrefix) {
  TuyaFrame f;
  Bytes raw = encode_tuya_frame(f);
  raw[3] = 0x00;
  EXPECT_EQ(decode_tuya_frame(BytesView(raw)), std::nullopt);
}

TEST(Tuya, DiscoveryExposesGwidAndProductKey) {
  TuyaDiscovery d;
  d.gw_id = "86200001ae90d6d48d2d";
  d.ip = "192.168.10.61";
  d.product_key = "keymwyws7ntafnwq";
  const auto back = decode_tuya_discovery(BytesView(encode_tuya_discovery(d)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->gw_id, d.gw_id);
  EXPECT_EQ(back->product_key, d.product_key);
  EXPECT_EQ(back->ip, d.ip);
}

// -------------------------------------------------------------------- CoAP

TEST(Coap, GetRequestRoundTrip) {
  CoapMessage m;
  m.type = CoapType::kConfirmable;
  m.code = kCoapGet;
  m.message_id = 0x1234;
  m.token = {0xde, 0xad};
  m.set_uri_path("oic/res");
  const auto back = decode_coap(BytesView(encode_coap(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, CoapType::kConfirmable);
  EXPECT_EQ(back->code, kCoapGet);
  EXPECT_EQ(back->message_id, 0x1234);
  EXPECT_EQ(back->token, m.token);
  EXPECT_EQ(back->uri_path(), "oic/res");
}

TEST(Coap, PayloadAfterMarker) {
  CoapMessage m;
  m.code = kCoapContent;
  m.payload = bytes_of("{\"rt\":\"oic.wk.res\"}");
  const auto back = decode_coap(BytesView(encode_coap(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->payload, m.payload);
}

TEST(Coap, LargeOptionDeltaUsesExtendedEncoding) {
  CoapMessage m;
  m.options.push_back({2048, bytes_of("v")});  // delta >= 269
  const auto back = decode_coap(BytesView(encode_coap(m)));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->options.size(), 1u);
  EXPECT_EQ(back->options[0].number, 2048);
}

TEST(Coap, RejectsBadVersionAndEmptyPayloadMarker) {
  CoapMessage m;
  Bytes raw = encode_coap(m);
  Bytes bad_version = raw;
  bad_version[0] = static_cast<std::uint8_t>(bad_version[0] & 0x3f);  // version 0
  EXPECT_EQ(decode_coap(BytesView(bad_version)), std::nullopt);
  Bytes marker_no_payload = raw;
  marker_no_payload.push_back(0xff);
  EXPECT_EQ(decode_coap(BytesView(marker_no_payload)), std::nullopt);
}

// ----------------------------------------------------------------- NetBIOS

TEST(Netbios, WildcardEncodesToCkaaa) {
  EXPECT_EQ(netbios_encode_name("*"),
            "CKAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA");  // Table 5's exact string
}

TEST(Netbios, NameEncodingRoundTrip) {
  const std::string encoded = netbios_encode_name("WORKGROUP");
  EXPECT_EQ(encoded.size(), 32u);
  EXPECT_EQ(netbios_decode_name(encoded), "WORKGROUP");
  EXPECT_EQ(netbios_decode_name("short"), std::nullopt);
  EXPECT_EQ(netbios_decode_name(std::string(32, 'z')), std::nullopt);
}

TEST(Netbios, NodeStatusQueryRoundTrip) {
  NetbiosPacket p;
  p.transaction_id = 0x0001;
  p.op = NetbiosOp::kNodeStatusQuery;
  p.name = "*";
  const Bytes raw = encode_netbios(p);
  EXPECT_TRUE(is_netbios_wildcard_scan(BytesView(raw)));
  const auto back = decode_netbios(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, NetbiosOp::kNodeStatusQuery);
  EXPECT_EQ(back->name, "*");
}

TEST(Netbios, NodeStatusResponseListsNames) {
  NetbiosPacket p;
  p.op = NetbiosOp::kNodeStatusResponse;
  p.name = "*";
  p.owned_names = {"SMARTTV", "WORKGROUP"};
  const auto back = decode_netbios(BytesView(encode_netbios(p)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->op, NetbiosOp::kNodeStatusResponse);
  EXPECT_EQ(back->owned_names, p.owned_names);
}

TEST(Netbios, NonWildcardIsNotScan) {
  NetbiosPacket p;
  p.op = NetbiosOp::kNodeStatusQuery;
  p.name = "PRINTER";
  EXPECT_FALSE(is_netbios_wildcard_scan(BytesView(encode_netbios(p))));
}

// --------------------------------------------------------------------- TLS

TEST(Tls, ClientHelloRoundTrip) {
  Rng rng(11);
  TlsClientHello hello;
  hello.version = TlsVersion::kTls12;
  hello.random = rng.bytes(32);
  hello.cipher_suites = {0xc02f, 0xc030, 0x009e};
  hello.sni = "local-device";
  const Bytes raw = encode_client_hello(hello);
  EXPECT_TRUE(looks_like_tls(BytesView(raw)));
  const auto rec = decode_tls_record(BytesView(raw));
  ASSERT_TRUE(rec.has_value());
  const auto back = decode_client_hello(*rec);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, TlsVersion::kTls12);
  EXPECT_EQ(back->cipher_suites, hello.cipher_suites);
  EXPECT_EQ(back->sni, "local-device");
}

TEST(Tls, Tls13NegotiatedViaExtension) {
  Rng rng(12);
  TlsClientHello hello;
  hello.version = TlsVersion::kTls13;
  hello.random = rng.bytes(32);
  hello.cipher_suites = {0x1301};
  const Bytes raw = encode_client_hello(hello);
  // Wire record version stays 0x0303 (middlebox compat).
  EXPECT_EQ(raw[1], 0x03);
  EXPECT_EQ(raw[2], 0x03);
  const auto back = decode_client_hello(*decode_tls_record(BytesView(raw)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, TlsVersion::kTls13);
}

TEST(Tls, ServerHelloRoundTrip) {
  Rng rng(13);
  TlsServerHello hello;
  hello.version = TlsVersion::kTls13;
  hello.random = rng.bytes(32);
  hello.cipher_suite = 0x1302;
  const auto rec = decode_tls_record(BytesView(encode_server_hello(hello)));
  ASSERT_TRUE(rec.has_value());
  const auto back = decode_server_hello(*rec);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->version, TlsVersion::kTls13);
  EXPECT_EQ(back->cipher_suite, 0x1302);
}

TEST(Tls, CertificateMetadataRoundTrip) {
  CertificateInfo cert;
  cert.subject_cn = "192.168.0.57";
  cert.issuer_cn = "192.168.0.57";
  cert.validity_days = 90;  // Echo-style 3-month cert
  cert.key_bits = 2048;
  const auto rec =
      decode_tls_record(BytesView(encode_certificate(cert, TlsVersion::kTls12, false)));
  ASSERT_TRUE(rec.has_value());
  const auto back = decode_certificate(*rec);
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->self_signed());
  EXPECT_EQ(back->validity_days, 90u);
  EXPECT_NEAR(back->validity_years(), 0.25, 0.01);
}

TEST(Tls, EncryptedCertificateIsOpaque) {
  CertificateInfo cert;
  cert.subject_cn = "apple-device";
  cert.issuer_cn = "Apple Local CA";
  const Bytes raw = encode_certificate(cert, TlsVersion::kTls13, true);
  const auto rec = decode_tls_record(BytesView(raw));
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->type, TlsRecordType::kApplicationData);
  EXPECT_EQ(decode_certificate(*rec), std::nullopt);
  // And the cleartext CN must not appear in the bytes.
  const std::string hex = to_hex(BytesView(raw));
  EXPECT_EQ(string_of(BytesView(raw)).find("Apple"), std::string::npos);
}

TEST(Tls, RecordStreamSplitting) {
  Rng rng(14);
  Bytes stream;
  const Bytes a = encode_application_data(rng, 100);
  const Bytes b = encode_application_data(rng, 200);
  stream.insert(stream.end(), a.begin(), a.end());
  stream.insert(stream.end(), b.begin(), b.end());
  const auto records = decode_tls_records(BytesView(stream));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].body.size(), 100u);
  EXPECT_EQ(records[1].body.size(), 200u);
}

TEST(Tls, LooksLikeTlsRejectsOtherTraffic) {
  EXPECT_FALSE(looks_like_tls(BytesView(bytes_of("GET / HTTP/1.1"))));
  EXPECT_FALSE(looks_like_tls(BytesView(bytes_of(""))));
  const Bytes bogus = {0x16, 0x05, 0x03, 0x00, 0x10};
  EXPECT_FALSE(looks_like_tls(BytesView(bogus)));
}

// --------------------------------------------------------------- RTP/STUN

TEST(Rtp, RoundTrip) {
  RtpPacket p;
  p.payload_type = 96;
  p.sequence = 4242;
  p.timestamp = 90000;
  p.ssrc = 0xcafebabe;
  p.payload = bytes_of("audio");
  const auto back = decode_rtp(BytesView(encode_rtp(p)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sequence, 4242);
  EXPECT_EQ(back->ssrc, 0xcafebabeu);
  EXPECT_EQ(back->payload, p.payload);
}

TEST(Stun, RoundTrip) {
  Rng rng(15);
  StunMessage m;
  m.type = 0x0001;
  m.transaction_id = rng.bytes(12);
  const auto back = decode_stun(BytesView(encode_stun(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, 0x0001);
  EXPECT_EQ(back->transaction_id, m.transaction_id);
}

TEST(RtpStun, HeuristicsDisambiguateByLeadingBits) {
  RtpPacket rtp;
  rtp.payload = bytes_of("x");
  const Bytes rtp_raw = encode_rtp(rtp);
  EXPECT_TRUE(looks_like_rtp(BytesView(rtp_raw)));
  EXPECT_FALSE(looks_like_stun(BytesView(rtp_raw)));

  StunMessage stun;
  const Bytes stun_raw = encode_stun(stun);
  EXPECT_TRUE(looks_like_stun(BytesView(stun_raw)));
  EXPECT_FALSE(looks_like_rtp(BytesView(stun_raw)));
}

// ------------------------------------------------------------------ Matter

TEST(Matter, MessageRoundTrip) {
  MatterMessage m;
  m.session_id = 0x1234;
  m.message_counter = 42;
  m.source_node = 0x1122334455667788ull;
  m.payload = bytes_of("protected-bytes");
  const Bytes raw = encode_matter(m);
  EXPECT_TRUE(looks_like_matter(BytesView(raw)));
  const auto back = decode_matter(BytesView(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->session_id, 0x1234);
  EXPECT_EQ(back->message_counter, 42u);
  EXPECT_EQ(back->source_node, 0x1122334455667788ull);
  EXPECT_EQ(back->payload, m.payload);
}

TEST(Matter, MessageWithoutNodesRoundTrip) {
  MatterMessage m;
  m.session_id = 0;  // unsecured commissioning session
  m.payload = bytes_of("pase");
  const auto back = decode_matter(BytesView(encode_matter(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->source_node, std::nullopt);
  EXPECT_EQ(back->destination_node, std::nullopt);
}

TEST(Matter, CommissionableAdvertisementRoundTrip) {
  MatterCommissionable node;
  node.discriminator = 0xabc;
  node.vendor_id = 0xfff1;
  node.product_id = 0x8001;
  node.commissioning_open = true;
  node.instance = "02A000112233";  // MAC-derived: the §7 exposure
  const DnsMessage advert = matter_commissionable_advertisement(
      node, "echo.local", Ipv4Address(192, 168, 10, 5));
  // Survives the mDNS wire format.
  const auto wire = decode_dns(BytesView(encode_dns(advert)));
  ASSERT_TRUE(wire.has_value());
  const auto back = parse_matter_advertisement(*wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->discriminator, 0xabc);
  EXPECT_EQ(back->vendor_id, 0xfff1);
  EXPECT_TRUE(back->commissioning_open);
  EXPECT_EQ(back->instance, "02A000112233");
}

TEST(Matter, NonMatterMdnsYieldsNullopt) {
  DnsMessage msg;
  msg.is_response = true;
  msg.answers.push_back(DnsRecord::make_txt(
      DnsName::from_string("x._hue._tcp.local"), {"a=b"}));
  EXPECT_EQ(parse_matter_advertisement(msg), std::nullopt);
}

// ------------------------------------------------------------------ DHCPv6

TEST(Dhcpv6, SolicitRoundTripWithDuidLl) {
  const auto mac = MacAddress::parse("02:a0:00:12:34:56").value();
  Dhcpv6Message m;
  m.type = Dhcpv6Type::kSolicit;
  m.transaction_id = 0xabcdef;
  m.set_client_duid_ll(mac);
  m.set_fqdn("Echo-Show-5");
  const auto back = decode_dhcpv6(BytesView(encode_dhcpv6(m)));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, Dhcpv6Type::kSolicit);
  EXPECT_EQ(back->transaction_id, 0xabcdefu);
  EXPECT_EQ(back->client_mac(), mac);  // the MAC rides the multicast
  EXPECT_EQ(back->fqdn(), "Echo-Show-5");
}

TEST(Dhcpv6, MulticastGroupIsAllDhcpAgents) {
  EXPECT_EQ(dhcpv6_multicast_group().to_string(), "ff02::1:2");
}

TEST(Dhcpv6, RejectsTruncatedOptions) {
  Dhcpv6Message m;
  m.set_client_duid_ll(MacAddress::from_u64(1));
  Bytes raw = encode_dhcpv6(m);
  raw.resize(raw.size() - 3);
  EXPECT_EQ(decode_dhcpv6(BytesView(raw)), std::nullopt);
}

}  // namespace
}  // namespace roomnet
