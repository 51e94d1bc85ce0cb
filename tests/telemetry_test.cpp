// Tests for roomnet::telemetry: counter/gauge/histogram semantics, labeled
// families, log-2 bucket boundaries, and exporter golden strings.
#include <gtest/gtest.h>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace roomnet::telemetry {
namespace {

// ----------------------------------------------------------------- Counter

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

// ------------------------------------------------------------------- Gauge

TEST(Gauge, SetAddAndHighWater) {
  Gauge g;
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.record_max(5);
  EXPECT_EQ(g.value(), 7);  // 5 < 7: high-water unchanged
  g.record_max(19);
  EXPECT_EQ(g.value(), 19);
}

// --------------------------------------------------------------- Histogram

TEST(Histogram, BucketBoundariesAreLog2) {
  // Bucket i spans [2^(i-1), 2^i): 0→b0, 1→b1, 2..3→b2, 4..7→b3, …
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(7), 3u);
  EXPECT_EQ(Histogram::bucket_index(8), 4u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  // Saturation into the last bucket.
  EXPECT_EQ(Histogram::bucket_index(~0ull), Histogram::kBuckets - 1);
  // Upper bounds are 2^i - 1.
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper_bound(11), 2047u);
}

TEST(Histogram, ObserveTracksCountSumAndBuckets) {
  Histogram h;
  h.observe(0);
  h.observe(3);
  h.observe(3);
  h.observe(900);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 906u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(10), 1u);  // 900 ∈ [512, 1024)
  EXPECT_EQ(h.bucket(5), 0u);
}

// ---------------------------------------------------------------- Registry

TEST(Registry, LabelFamiliesAreDistinctAndStable) {
  Registry r;
  Counter& plain = r.counter("roomnet_test_frames_total");
  Counter& udp = r.counter("roomnet_test_frames_total", {{"proto", "udp"}});
  Counter& tcp = r.counter("roomnet_test_frames_total", {{"proto", "tcp"}});
  EXPECT_NE(&plain, &udp);
  EXPECT_NE(&udp, &tcp);
  udp.inc(5);
  // The same (name, labels) pair resolves to the same instance — and label
  // order does not matter.
  EXPECT_EQ(
      &r.counter("roomnet_test_frames_total", {{"proto", "udp"}}), &udp);
  Counter& multi =
      r.counter("roomnet_test_multi", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&r.counter("roomnet_test_multi", {{"a", "1"}, {"b", "2"}}),
            &multi);
  EXPECT_EQ(udp.value(), 5u);
}

TEST(Registry, SnapshotIsDeterministicallyOrdered) {
  Registry r;
  r.counter("roomnet_b").inc();
  r.counter("roomnet_a", {{"x", "2"}}).inc();
  r.counter("roomnet_a", {{"x", "1"}}).inc();
  r.gauge("roomnet_c").set(-7);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "roomnet_a");
  EXPECT_EQ(snap[0].labels, (Labels{{"x", "1"}}));
  EXPECT_EQ(snap[1].labels, (Labels{{"x", "2"}}));
  EXPECT_EQ(snap[2].name, "roomnet_b");
  EXPECT_EQ(snap[3].name, "roomnet_c");
  EXPECT_EQ(snap[3].gauge, -7);
}

TEST(Registry, ResetAllZeroesEverything) {
  Registry r;
  r.counter("c").inc(9);
  r.gauge("g").set(9);
  r.histogram("h").observe(9);
  r.reset_all();
  EXPECT_EQ(r.counter("c").value(), 0u);
  EXPECT_EQ(r.gauge("g").value(), 0);
  EXPECT_EQ(r.histogram("h").count(), 0u);
}

// --------------------------------------------------------------- Exporters

TEST(Exporters, PrometheusGoldenString) {
  Registry r;
  r.counter("roomnet_test_frames_total").inc(3);
  r.counter("roomnet_test_frames_total", {{"proto", "udp"}}).inc(2);
  r.gauge("roomnet_test_queue_depth").set(17);
  const std::string expected =
      "# TYPE roomnet_test_frames_total counter\n"
      "roomnet_test_frames_total 3\n"
      "roomnet_test_frames_total{proto=\"udp\"} 2\n"
      "# TYPE roomnet_test_queue_depth gauge\n"
      "roomnet_test_queue_depth 17\n";
  EXPECT_EQ(to_prometheus(r), expected);
}

TEST(Exporters, PrometheusHistogramIsCumulative) {
  Registry r;
  Histogram& h = r.histogram("roomnet_test_latency_us");
  h.observe(0);
  h.observe(3);
  h.observe(3);
  const std::string out = to_prometheus(r);
  EXPECT_NE(out.find("# TYPE roomnet_test_latency_us histogram\n"),
            std::string::npos);
  EXPECT_NE(out.find("roomnet_test_latency_us_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  // Bucket le="1" is cumulative: still only the single zero observation.
  EXPECT_NE(out.find("roomnet_test_latency_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("roomnet_test_latency_us_bucket{le=\"3\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("roomnet_test_latency_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("roomnet_test_latency_us_sum 6\n"), std::string::npos);
  EXPECT_NE(out.find("roomnet_test_latency_us_count 3\n"), std::string::npos);
}

TEST(Exporters, PrometheusEscapesHostileLabelValues) {
  // The exposition format escapes exactly backslash, double-quote, and
  // newline inside label values; a raw quote or newline would corrupt the
  // sample line for any conforming scraper.
  Registry r;
  r.counter("roomnet_test_hostile_total", {{"stage", "a\\b\"c\nd"}}).inc();
  const std::string out = to_prometheus(r);
  EXPECT_NE(
      out.find("roomnet_test_hostile_total{stage=\"a\\\\b\\\"c\\nd\"} 1\n"),
      std::string::npos);
  // The raw (unescaped) newline must not survive inside the label block.
  EXPECT_EQ(out.find("c\nd"), std::string::npos);
}

TEST(Exporters, PrometheusHistogramInfBucketEqualsCount) {
  Registry r;
  Histogram& h = r.histogram("roomnet_test_inf_us");
  // Span the full range, including a value that saturates the last bucket:
  // the +Inf bucket is cumulative over every bucket and must equal _count.
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
        std::uint64_t{1} << 20, ~std::uint64_t{0}})
    h.observe(v);
  const std::string out = to_prometheus(r);
  EXPECT_NE(out.find("roomnet_test_inf_us_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(out.find("roomnet_test_inf_us_count 5\n"), std::string::npos);
}

TEST(Exporters, JsonGoldenString) {
  Registry r;
  r.counter("roomnet_test_total", {{"proto", "udp"}}).inc(2);
  const std::string expected =
      "[\n"
      "  {\"name\":\"roomnet_test_total\",\"labels\":{\"proto\":\"udp\"},"
      "\"kind\":\"counter\",\"value\":2}\n"
      "]\n";
  EXPECT_EQ(to_json(r), expected);
}

// --------------------------------------------------------------- Quantiles

namespace {
MetricSnapshot snapshot_of(const Registry& r, const std::string& name) {
  for (const MetricSnapshot& m : r.snapshot())
    if (m.name == name) return m;
  ADD_FAILURE() << "no snapshot named " << name;
  return {};
}
}  // namespace

TEST(Exporters, HistogramQuantileInterpolatesWithinBucket) {
  Registry r;
  Histogram& h = r.histogram("roomnet_test_lat_us");
  // 100 observations of 12: all mass in bucket 4, value range [8, 15].
  for (int i = 0; i < 100; ++i) h.observe(12);
  const MetricSnapshot m = snapshot_of(r, "roomnet_test_lat_us");
  // target rank q*100 lands fraction q into the bucket: 8 + q * (15 - 8).
  EXPECT_EQ(histogram_quantile(m, 0.50), 11u);
  EXPECT_EQ(histogram_quantile(m, 0.99), 14u);
  EXPECT_EQ(histogram_quantile(m, 1.00), 15u);
}

TEST(Exporters, HistogramQuantileWalksCumulativeAcrossBuckets) {
  Registry r;
  Histogram& h = r.histogram("roomnet_test_walk_us");
  h.observe(1);                                  // bucket 1: 1 obs
  h.observe(2);                                  // bucket 2: 2 obs
  h.observe(3);
  for (std::uint64_t v = 4; v <= 7; ++v) h.observe(v);  // bucket 3: 4 obs
  const MetricSnapshot m = snapshot_of(r, "roomnet_test_walk_us");
  // count=7; rank 3.5 lands 0.125 into bucket 3's [4, 7] span.
  EXPECT_EQ(histogram_quantile(m, 0.50), 4u);
  // rank 0.7 is inside bucket 1 (cumulative 1 >= 0.7): exactly 1.
  EXPECT_EQ(histogram_quantile(m, 0.10), 1u);
}

TEST(Exporters, HistogramQuantileEdgeCases) {
  Registry r;
  Histogram& empty = r.histogram("roomnet_test_empty_us");
  (void)empty;
  EXPECT_EQ(histogram_quantile(snapshot_of(r, "roomnet_test_empty_us"), 0.5),
            0u);
  // A counter snapshot is not a histogram: quantile is defined as 0.
  r.counter("roomnet_test_not_hist_total").inc();
  EXPECT_EQ(
      histogram_quantile(snapshot_of(r, "roomnet_test_not_hist_total"), 0.5),
      0u);
  // The overflow bucket has no finite upper bound: clamp to its lower edge.
  Histogram& sat = r.histogram("roomnet_test_sat_us");
  sat.observe(~std::uint64_t{0});
  EXPECT_EQ(histogram_quantile(snapshot_of(r, "roomnet_test_sat_us"), 0.99),
            std::uint64_t{1} << (Histogram::kBuckets - 2));
}

TEST(Exporters, PrometheusEmitsQuantileGaugeFamilies) {
  Registry r;
  Histogram& h = r.histogram("roomnet_test_q_us", {{"stage", "idle"}});
  for (int i = 0; i < 100; ++i) h.observe(12);
  const std::string out = to_prometheus(r);
  EXPECT_NE(out.find("# TYPE roomnet_test_q_us_p50 gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("roomnet_test_q_us_p50{stage=\"idle\"} 11\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE roomnet_test_q_us_p95 gauge\n"),
            std::string::npos);
  EXPECT_NE(out.find("roomnet_test_q_us_p99{stage=\"idle\"} 14\n"),
            std::string::npos);
  // Derived families come after the primaries, so the histogram's own
  // sample group stays contiguous.
  EXPECT_LT(out.find("roomnet_test_q_us_count"),
            out.find("roomnet_test_q_us_p50"));
}

}  // namespace
}  // namespace roomnet::telemetry
