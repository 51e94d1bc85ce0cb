// Tests for the protocol honeypots and taint propagation tracking.
#include <gtest/gtest.h>

#include "honeypot/honeypot.hpp"
#include "proto/http.hpp"
#include "proto/json.hpp"
#include "sim/host.hpp"

namespace roomnet {
namespace {

MacAddress mac_n(std::uint64_t n) { return MacAddress::from_u64(0x02a0f0000000ull | n); }

struct HoneyLan {
  EventLoop loop;
  Switch net{loop};
  Router router{net, mac_n(1), Ipv4Address(192, 168, 10, 1)};
  Rng rng{99};
  void settle(double s = 10) { loop.run_until(loop.now() + SimTime::from_seconds(s)); }
};

TEST(Honeypot, MediaRendererAnswersMsearchWithTokens) {
  HoneyLan lan;
  Honeypot pot(lan.net, mac_n(2), HoneypotPersona::kMediaRenderer, lan.rng);
  pot.start();
  lan.settle();

  Host scanner(lan.net, mac_n(3), "scanner");
  scanner.start_dhcp("scanner", "", {});
  lan.settle();

  SsdpEndpoint scanner_ssdp(scanner);
  std::optional<SsdpMessage> response;
  scanner_ssdp.on_message = [&](const PacketView&, const SsdpView& m) {
    if (m.kind == SsdpKind::kResponse) response = m.to_message();
  };
  scanner_ssdp.msearch("ssdp:all");
  lan.settle();

  ASSERT_TRUE(response.has_value());
  // The USN carries the honeypot's UDN token.
  bool token_in_usn = false;
  for (const auto& token : pot.tokens())
    token_in_usn |= response->usn.find(token.value) != std::string::npos;
  EXPECT_TRUE(token_in_usn);
  // The M-SEARCH was recorded with the scanner's MAC.
  ASSERT_FALSE(pot.interactions().empty());
  EXPECT_FALSE(pot.interactions_from(scanner.mac()).empty());
  EXPECT_EQ(pot.interactions_from(scanner.mac())[0].protocol,
            ProtocolLabel::kSsdp);
}

TEST(Honeypot, ZeroconfSpeakerRecordsQueriesAndEmitsTokens) {
  HoneyLan lan;
  Honeypot pot(lan.net, mac_n(2), HoneypotPersona::kZeroconfSpeaker, lan.rng);
  pot.start();
  lan.settle();

  Host phone(lan.net, mac_n(3), "phone");
  phone.start_dhcp("phone", "", {});
  lan.settle();
  MdnsEndpoint phone_mdns(phone);
  std::string seen_instance;
  phone_mdns.on_message = [&](const PacketView&, const DnsView& msg) {
    for (const auto& rec : msg.answers)
      if (const auto ptr = rec.ptr()) seen_instance = ptr->to_string();
  };
  phone_mdns.query("_spotify-connect._tcp.local");
  lan.settle();

  bool tokened = false;
  for (const auto& token : pot.tokens())
    tokened |= seen_instance.find(token.value) != std::string::npos;
  EXPECT_TRUE(tokened);
  EXPECT_FALSE(pot.interactions_from(phone.mac()).empty());
}

TEST(Honeypot, TelnetShellRecordsConnections) {
  HoneyLan lan;
  Honeypot pot(lan.net, mac_n(2), HoneypotPersona::kTelnetShell, lan.rng);
  pot.start();
  lan.settle();

  Host intruder(lan.net, mac_n(3), "intruder");
  intruder.start_dhcp("intruder", "", {});
  lan.settle();
  std::string banner;
  auto& conn = intruder.connect_tcp(pot.host().ip(), 23);
  conn.on_data = [&](TcpConnection& c, BytesView data) {
    if (banner.empty()) {
      banner = string_of(data);
      c.send(bytes_of("root\r\n"));
    }
  };
  lan.settle();
  EXPECT_NE(banner.find("login:"), std::string::npos);
  // Connection + credential input both recorded.
  EXPECT_GE(pot.interactions().size(), 2u);
}

TEST(PropagationTrackerTest, FindsTokensInUploads) {
  HoneyLan lan;
  Honeypot pot(lan.net, mac_n(2), HoneypotPersona::kMediaRenderer, lan.rng);
  pot.start();
  lan.settle();

  PropagationTracker tracker;
  tracker.register_tokens(pot);

  // An app "uploads" a JSON blob embedding the honeypot's friendlyName.
  ASSERT_FALSE(pot.tokens().empty());
  const std::string stolen = pot.tokens()[1].value;  // friendlyName token
  json::Object payload;
  payload.emplace("devices", json::Array{json::Value("Living Room TV " + stolen)});
  const std::string upload = json::Value(std::move(payload)).dump();

  const auto matches =
      tracker.scan(BytesView(bytes_of(upload)), "app:com.example/cloud");
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].token.value, stolen);
  EXPECT_EQ(matches[0].context, "app:com.example/cloud");

  // Clean payloads produce no matches.
  EXPECT_TRUE(
      tracker.scan(BytesView(bytes_of("{\"benign\":true}")), "x").empty());
}

TEST(PropagationTrackerTest, TokensAreUniqueAcrossHoneypots) {
  HoneyLan lan;
  Honeypot a(lan.net, mac_n(2), HoneypotPersona::kIpCamera, lan.rng);
  Honeypot b(lan.net, mac_n(3), HoneypotPersona::kIpCamera, lan.rng);
  a.start();
  b.start();
  lan.settle();
  for (const auto& ta : a.tokens())
    for (const auto& tb : b.tokens()) EXPECT_NE(ta.value, tb.value);
}

TEST(HoneypotIntegration, AppHarvestsTokensAndTrackerCatchesExfiltration) {
  // End-to-end §3.1 honeypot purpose: deploy a honeypot, run a scanning app
  // over the instrumented phone, and prove the honeytoken shows up in the
  // app's cloud upload — the propagation evidence chain.
  HoneyLan lan;
  Honeypot pot(lan.net, mac_n(2), HoneypotPersona::kZeroconfSpeaker, lan.rng);
  pot.start();

  Host phone(lan.net, mac_n(3), "phone");
  phone.start_dhcp("phone", "", {});
  lan.settle();

  // A scanning "app": mDNS meta + specific query, harvest instance names.
  std::vector<std::string> harvested;
  MdnsEndpoint phone_mdns(phone);
  phone_mdns.on_message = [&](const PacketView&, const DnsView& msg) {
    for (const auto& rec : msg.answers)
      if (const auto ptr = rec.ptr()) harvested.push_back(ptr->to_string());
  };
  phone_mdns.query("_spotify-connect._tcp.local");
  lan.settle();
  ASSERT_FALSE(harvested.empty());

  // The app uploads its inventory; the tracker must match the token.
  std::string upload = "{\"inventory\":[";
  for (const auto& name : harvested) upload += "\"" + name + "\",";
  upload += "]}";
  PropagationTracker tracker;
  tracker.register_tokens(pot);
  const auto matches =
      tracker.scan(BytesView(bytes_of(upload)), "app->cloud upload");
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].token.field, "instance");
}

}  // namespace
}  // namespace roomnet
