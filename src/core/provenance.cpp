#include "core/provenance.hpp"

namespace roomnet {

namespace {

using obs::CanonicalHasher;

void hash_mac(CanonicalHasher& h, MacAddress mac) { h.u64(mac.to_u64()); }

void hash_label_set(CanonicalHasher& h, const std::set<ProtocolLabel>& set) {
  h.u64(set.size());
  for (const ProtocolLabel label : set) h.u32(static_cast<std::uint32_t>(label));
}

void hash_mac_label_map(
    CanonicalHasher& h,
    const std::map<MacAddress, std::set<ProtocolLabel>>& map) {
  h.u64(map.size());
  for (const auto& [mac, labels] : map) {
    hash_mac(h, mac);
    hash_label_set(h, labels);
  }
}

void hash_scan_target(CanonicalHasher& h, const ScanTarget& target) {
  hash_mac(h, target.mac);
  h.u32(target.ip.value());
  h.str(target.label);
}

void hash_ports(CanonicalHasher& h, const std::vector<std::uint16_t>& ports) {
  h.u64(ports.size());
  for (const std::uint16_t p : ports) h.u16(p);
}

}  // namespace

std::string pipeline_config_digest(const PipelineConfig& config) {
  CanonicalHasher h;
  h.str("roomnet-pipeline-config-v1");
  h.u64(config.seed);
  h.i64(config.idle_duration.us());
  h.i64(config.interactions);
  h.i64(config.app_sample);
  h.boolean(config.run_scan);
  h.boolean(config.run_crowd);
  const faults::FaultConfig& f = config.faults;
  h.f64(f.loss);
  h.f64(f.duplicate);
  h.f64(f.reorder);
  h.f64(f.jitter_max_us);
  h.f64(f.truncate);
  h.f64(f.corrupt);
  h.f64(f.churn);
  h.f64(f.churn_period_s);
  h.f64(f.churn_downtime_s);
  // Armed eviction knobs CAN change results (flows split, payload-less
  // records classify generically), so only then do the bounds fold into the
  // digest; the default non-evicting config keeps every historical digest,
  // and the fixed tag keeps evicting runs' digests stable as well.
  if (config.stream.evicting()) {
    h.str("streaming-evicting");
    h.u64(config.stream.max_flows);
    h.u64(config.stream.memcap_bytes);
    h.i64(config.stream.idle_timeout.us());
    h.i64(config.stream.established_timeout.us());
  }
  // Watch knobs fold in only when customized: the stock config keeps every
  // historical digest stable, while
  // a different ruleset/ring/tick — which changes the "watch" stage hash —
  // is correctly a different configuration.
  if (!config.watch.is_default()) {
    h.str("watch");
    h.boolean(config.watch.enabled);
    h.u64(config.watch.ring_capacity);
    h.str(config.watch.rules);
    h.i64(config.watch.tick.us());
    h.i64(config.watch.burst_window.us());
    h.i64(config.watch.burst_threshold);
    h.u64(config.watch.max_tracked_per_device);
  }
  return h.hex();
}

std::string hash_classify_stage(const PipelineResults& results) {
  CanonicalHasher h;
  h.str("classify-v1");

  hash_mac_label_map(h, results.usage.by_device);

  h.u64(results.graph.edges.size());
  for (const CommGraph::Edge& edge : results.graph.edges) {
    hash_mac(h, edge.a);
    hash_mac(h, edge.b);
    h.boolean(edge.tcp);
    h.boolean(edge.udp);
    h.u64(edge.packets);
  }

  const CrossValidation& cv = results.crossval;
  h.u64(cv.matrix.size());
  for (const auto& [labels, count] : cv.matrix) {
    h.u32(static_cast<std::uint32_t>(labels.first));
    h.u32(static_cast<std::uint32_t>(labels.second));
    h.u64(count);
  }
  h.u64(cv.total);
  h.u64(cv.agreed);
  h.u64(cv.disagreed);
  h.u64(cv.neither_labeled);
  h.u64(cv.spec_labeled);
  h.u64(cv.deep_labeled);

  h.u64(results.exposure.cells.size());
  for (const auto& [cell, macs] : results.exposure.cells) {
    h.u32(static_cast<std::uint32_t>(cell.first));
    h.u32(static_cast<std::uint32_t>(cell.second));
    h.u64(macs.size());
    for (const MacAddress mac : macs) hash_mac(h, mac);
  }

  const ResponseStats& rs = results.responses;
  hash_mac_label_map(h, rs.discovery_protocols);
  hash_mac_label_map(h, rs.answered_protocols);
  h.u64(rs.responders.size());
  for (const auto& [mac, responders] : rs.responders) {
    hash_mac(h, mac);
    h.u64(responders.size());
    for (const MacAddress responder : responders) hash_mac(h, responder);
  }
  h.u64(rs.matches.size());
  for (const ResponseMatch& match : rs.matches) {
    h.i64(match.discovery.at.us());
    hash_mac(h, match.discovery.discoverer);
    h.u32(static_cast<std::uint32_t>(match.discovery.protocol));
    h.u16(match.discovery.port);
    hash_mac(h, match.responder);
    h.i64(match.response_at.us());
  }

  h.u64(results.flows);
  h.u64(results.local_packets);
  return h.hex();
}

std::string hash_scan_stage(const PipelineResults& results) {
  CanonicalHasher h;
  h.str("scan-v1");

  h.u64(results.scan_reports.size());
  for (const PortScanReport& report : results.scan_reports) {
    hash_scan_target(h, report.target);
    hash_ports(h, report.open_tcp);
    hash_ports(h, report.open_udp);
    hash_ports(h, report.closed_udp);
    h.u64(report.ip_protocols.size());
    for (const std::uint8_t p : report.ip_protocols) h.u8(p);
    h.boolean(report.responded_tcp);
    h.boolean(report.responded_udp);
    h.boolean(report.responded_ip);
  }

  h.u64(results.audits.size());
  for (const DeviceAudit& audit : results.audits) {
    hash_scan_target(h, audit.target);
    h.u64(audit.services.size());
    for (const ServiceObservation& service : audit.services) {
      h.u16(service.port);
      h.boolean(service.udp);
      h.str(service.inferred_service);
      h.str(service.corrected_service);
      h.str(service.banner);
      h.boolean(service.certificate.has_value());
      if (service.certificate.has_value()) {
        h.str(service.certificate->subject_cn);
        h.str(service.certificate->issuer_cn);
        h.u32(service.certificate->validity_days);
        h.u16(service.certificate->key_bits);
      }
      h.boolean(service.tls_version.has_value());
      if (service.tls_version.has_value())
        h.u16(static_cast<std::uint16_t>(*service.tls_version));
      h.boolean(service.backup_exposed);
      h.boolean(service.snapshot_exposed);
      h.boolean(service.accounts_exposed);
      h.boolean(service.jquery_12);
      h.boolean(service.dns_cache_snoopable);
      h.boolean(service.dns_reveals_resolver);
    }
  }

  h.u64(results.vulnerabilities.size());
  for (const VulnFinding& finding : results.vulnerabilities) {
    hash_mac(h, finding.mac);
    h.str(finding.device);
    h.u32(static_cast<std::uint32_t>(finding.severity));
    h.str(finding.id);
    h.str(finding.title);
    h.str(finding.evidence);
  }
  return h.hex();
}

std::string hash_apps_stage(const PipelineResults& results) {
  CanonicalHasher h;
  h.str("apps-v1");

  const AppCampaignStats& stats = results.app_stats;
  h.u64(stats.total_apps);
  h.u64(stats.apps_scanning_lan);
  h.u64(stats.apps_mdns);
  h.u64(stats.apps_ssdp);
  h.u64(stats.apps_netbios);
  h.u64(stats.apps_local_tls);
  h.u64(stats.apps_uploading_device_macs);
  h.u64(stats.iot_apps_uploading_device_macs);
  h.u64(stats.apps_uploading_router_ssid);
  h.u64(stats.apps_uploading_router_bssid);
  h.u64(stats.apps_uploading_wifi_mac);
  h.u64(stats.apps_with_permission_bypass);
  h.u64(stats.uploads_per_sdk.size());
  for (const auto& [sdk, count] : stats.uploads_per_sdk) {
    h.u32(static_cast<std::uint32_t>(sdk));
    h.u64(count);
  }

  h.u64(results.exfiltration.size());
  for (const ExfiltrationFinding& finding : results.exfiltration) {
    h.str(finding.package);
    h.u32(static_cast<std::uint32_t>(finding.sdk));
    h.str(finding.endpoint);
    h.u32(static_cast<std::uint32_t>(finding.data));
    h.u64(finding.value_count);
    h.boolean(finding.permission_bypass);
  }
  return h.hex();
}

std::string hash_crowd_stage(const PipelineResults& results) {
  CanonicalHasher h;
  h.str("crowd-v1");
  const auto hash_rows = [&h](const std::vector<FingerprintRow>& rows) {
    h.u64(rows.size());
    for (const FingerprintRow& row : rows) {
      h.i64(row.type_count);
      h.boolean(row.types.name);
      h.boolean(row.types.uuid);
      h.boolean(row.types.mac);
      h.u64(row.products);
      h.u64(row.vendors);
      h.u64(row.devices);
      h.u64(row.households);
      h.u64(row.uniquely_identified);
      h.f64(row.entropy_bits);
    }
  };
  hash_rows(results.fingerprints.rows);
  hash_rows(results.fingerprints.by_count);
  return h.hex();
}

std::string hash_degraded_ledger(
    const std::vector<faults::DegradedResult>& degraded) {
  CanonicalHasher h;
  h.str("degraded-v1");
  h.u64(degraded.size());
  for (const faults::DegradedResult& entry : degraded) {
    h.str(entry.stage);
    h.str(entry.subject);
    h.str(entry.reason);
  }
  return h.hex();
}

}  // namespace roomnet
