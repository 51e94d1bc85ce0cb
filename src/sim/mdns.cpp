#include "sim/mdns.hpp"

#include "proto/app.hpp"

namespace roomnet {

MdnsEndpoint::MdnsEndpoint(Host& host) : host_(&host) {
  host_->open_udp(
      kMdnsPort,
      [this](Host&, const PacketView& packet, const UdpDatagram&) {
        handle(packet);
      });
  host_->join_multicast_group(kMdnsGroupV4);
}

void MdnsEndpoint::query(const std::string& service_type, bool unicast_response) {
  DnsMessage msg;
  DnsQuestion q;
  q.name = DnsName::from_string(service_type);
  q.type = DnsType::kPtr;
  q.unicast_response = unicast_response;
  msg.questions.push_back(std::move(q));
  const Bytes raw = encode_dns(msg);
  host_->send_udp(kMdnsGroupV4, kMdnsPort, kMdnsPort, raw);
  if (host_->ipv6_enabled())
    host_->send_udp_v6(Ipv6Address::mdns_group(), kMdnsPort, kMdnsPort, raw);
}

void MdnsEndpoint::announce() {
  for (std::size_t i = 0; i < services_.size(); ++i)
    host_->send_udp(kMdnsGroupV4, kMdnsPort, kMdnsPort, answer(i));
}

DnsMessage MdnsEndpoint::build_answer(const MdnsService& service) const {
  DnsMessage msg;
  msg.is_response = true;
  msg.authoritative = true;
  const DnsName type_name = DnsName::from_string(service.service_type);
  DnsName instance_name = type_name;
  instance_name.labels.insert(instance_name.labels.begin(), service.instance);
  const DnsName host_name = DnsName::from_string(
      hostname_.empty() ? host_->label() + ".local" : hostname_);

  msg.answers.push_back(DnsRecord::make_ptr(type_name, instance_name));
  SrvData srv;
  srv.port = service.port;
  srv.target = host_name;
  msg.answers.push_back(DnsRecord::make_srv(instance_name, srv));
  if (!service.txt.empty())
    msg.answers.push_back(DnsRecord::make_txt(instance_name, service.txt));
  msg.additional.push_back(DnsRecord::make_a(host_name, host_->ip()));
  if (host_->ipv6_enabled())
    msg.additional.push_back(
        DnsRecord::make_aaaa(host_name, host_->link_local()));
  return msg;
}

const Bytes& MdnsEndpoint::answer(std::size_t i) {
  if (answers_ip_ != host_->ip() || answers_v6_ != host_->ipv6_enabled()) {
    answers_.clear();
    answers_ip_ = host_->ip();
    answers_v6_ = host_->ipv6_enabled();
  }
  if (answers_.size() < services_.size()) answers_.resize(services_.size());
  if (answers_[i].empty()) answers_[i] = encode_dns(build_answer(services_[i]));
  return answers_[i];
}

void MdnsEndpoint::handle(const PacketView& packet) {
  const DnsView* msg = dns_of(packet);
  if (msg == nullptr) return;
  if (on_message) on_message(packet, *msg);
  if (msg->is_response || !packet.ipv4) return;

  for (const DnsQuestionView& q : msg->questions) {
    if (q.type != DnsType::kPtr && q.type != DnsType::kAny) continue;
    for (std::size_t i = 0; i < services_.size(); ++i) {
      // Names compare case-insensitively (RFC 6762 §16). The DNS-SD
      // meta-query is answered only by full Bonjour stacks (the same ones
      // that honor QU unicast responses); many embedded mDNS responders
      // only match their own service type.
      const bool match =
          q.name.iequals(services_[i].service_type) ||
          (answer_unicast && q.name.iequals("_services._dns-sd._udp.local"));
      if (!match) continue;
      if (q.unicast_response && answer_unicast) {
        host_->send_udp(packet.ipv4->src, kMdnsPort, kMdnsPort, answer(i));
      } else if (answer_multicast) {
        host_->send_udp(kMdnsGroupV4, kMdnsPort, kMdnsPort, answer(i));
      } else if (answer_unicast) {
        host_->send_udp(packet.ipv4->src, kMdnsPort, kMdnsPort, answer(i));
      }
    }
  }
}

}  // namespace roomnet
