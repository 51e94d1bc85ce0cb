// Parallel-runtime speedup: times the sharded analysis stages — household
// fingerprint entropy (§6.3) and the vulnerability audit (§5.2) — at 1 vs 4
// workers on identical inputs, and asserts the results stay byte-identical.
// The BENCH json records per-stage wall times, the combined speedup, and the
// worker counts, so the perf trajectory is machine-readable across hosts (on
// a single-core container the speedup is honestly ~1.0).
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "exec/task_pool.hpp"

using namespace roomnet;
using namespace roomnet::bench;

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Synthetic audits exercising every rule of the vulnerability engine at
/// testbed scale (93 devices), replicated to make the stage measurable.
std::vector<DeviceAudit> synthetic_audits(std::size_t devices) {
  std::vector<DeviceAudit> audits;
  audits.reserve(devices);
  for (std::size_t d = 0; d < devices; ++d) {
    DeviceAudit audit;
    audit.target.mac = MacAddress::from_u64(0x02a0fc000000ull + d);
    audit.target.ip = Ipv4Address(192, 168, 10, static_cast<std::uint8_t>(d % 250 + 2));
    audit.target.label = "bench device " + std::to_string(d);
    ServiceObservation tls;
    tls.port = 8009;
    tls.certificate = CertificateInfo{.subject_cn = "device.local",
                                      .issuer_cn = "device.local",
                                      .validity_days = 7300,
                                      .key_bits = 64};
    tls.tls_version = TlsVersion::kTls10;
    audit.services.push_back(tls);
    ServiceObservation http;
    http.port = 80;
    http.corrected_service = "http";
    http.banner = "lighttpd/1.4";
    http.backup_exposed = (d % 3) == 0;
    http.snapshot_exposed = (d % 5) == 0;
    http.jquery_12 = (d % 7) == 0;
    audit.services.push_back(http);
    ServiceObservation dns;
    dns.port = 53;
    dns.udp = true;
    dns.banner = "SheerDNS 1.0.0";
    dns.dns_cache_snoopable = true;
    dns.dns_reveals_resolver = (d % 2) == 0;
    audit.services.push_back(dns);
    audits.push_back(std::move(audit));
  }
  return audits;
}

}  // namespace

int main() {
  header("parallel_speedup", "exec runtime: analysis stages at 1 vs 4 workers");

  Rng crowd_rng(42 ^ 0xc0ffee);
  const InspectorDataset dataset = generate_inspector_dataset(crowd_rng);
  const std::vector<DeviceAudit> audits = synthetic_audits(93 * 8);
  std::printf("\ninputs: %zu inspector devices, %zu audits\n",
              dataset.devices.size(), audits.size());

  struct StageTimes {
    double crowd_ms = 0;
    double scan_ms = 0;
    FingerprintAnalysis fp;
    std::vector<VulnFinding> vulns;
    [[nodiscard]] double total() const { return crowd_ms + scan_ms; }
  };
  const auto run_stages = [&](std::size_t threads) {
    exec::TaskPool pool(threads);
    StageTimes t;
    auto start = std::chrono::steady_clock::now();
    t.fp = fingerprint_households(dataset, pool);
    t.crowd_ms = ms_since(start);
    start = std::chrono::steady_clock::now();
    t.vulns = scan_vulnerabilities(audits, pool);
    t.scan_ms = ms_since(start);
    return t;
  };

  const StageTimes serial = run_stages(1);
  const StageTimes parallel = run_stages(4);
  const double speedup =
      parallel.total() > 0 ? serial.total() / parallel.total() : 1.0;
  const bool identical = serial.fp.rows.size() == parallel.fp.rows.size() &&
                         serial.vulns.size() == parallel.vulns.size();

  std::printf("\n%-28s %10s %10s\n", "stage", "1 worker", "4 workers");
  std::printf("%-28s %8.1fms %8.1fms\n", "household fingerprints",
              serial.crowd_ms, parallel.crowd_ms);
  std::printf("%-28s %8.1fms %8.1fms\n", "vulnerability audit",
              serial.scan_ms, parallel.scan_ms);
  std::printf("%-28s %8.1fms %8.1fms   speedup %.2fx\n", "combined",
              serial.total(), parallel.total(), speedup);
  std::printf("results byte-identical across worker counts: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("hardware threads available: %zu\n",
              exec::TaskPool::default_threads());

  scalar("crowd_ms_threads1", serial.crowd_ms);
  scalar("crowd_ms_threads4", parallel.crowd_ms);
  scalar("scan_ms_threads1", serial.scan_ms);
  scalar("scan_ms_threads4", parallel.scan_ms);
  scalar("combined_ms_threads1", serial.total());
  scalar("combined_ms_threads4", parallel.total());
  scalar("combined_speedup_4v1", speedup);
  scalar("results_identical", identical ? 1 : 0);
  scalar("hardware_threads",
         static_cast<double>(exec::TaskPool::default_threads()));
  return identical ? 0 : 1;
}
