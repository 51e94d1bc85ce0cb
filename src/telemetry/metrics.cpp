#include "telemetry/metrics.hpp"

#include <algorithm>

namespace roomnet::telemetry {

Registry::Entry& Registry::find_or_create(const std::string& name,
                                          Labels&& labels, MetricKind kind) {
  std::sort(labels.begin(), labels.end());
  std::lock_guard lock(mutex_);
  auto [it, inserted] =
      metrics_.try_emplace(Key{name, std::move(labels)}, Entry{.kind = kind});
  Entry& entry = it->second;
  if (inserted) {
    switch (kind) {
      case MetricKind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
  }
  return entry;
}

Counter& Registry::counter(const std::string& name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricKind::kCounter).counter;
}

Gauge& Registry::gauge(const std::string& name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricKind::kGauge).gauge;
}

Histogram& Registry::histogram(const std::string& name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricKind::kHistogram)
              .histogram;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [key, entry] : metrics_) {
    MetricSnapshot snap;
    snap.name = key.first;
    snap.labels = key.second;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        snap.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        snap.buckets.resize(Histogram::kBuckets);
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
          snap.buckets[i] = entry.histogram->bucket(i);
        snap.count = entry.histogram->count();
        snap.sum = entry.histogram->sum();
        break;
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void Registry::reset_all() {
  std::lock_guard lock(mutex_);
  for (auto& [key, entry] : metrics_) {
    switch (entry.kind) {
      case MetricKind::kCounter: entry.counter->reset(); break;
      case MetricKind::kGauge: entry.gauge->reset(); break;
      case MetricKind::kHistogram: entry.histogram->reset(); break;
    }
  }
}

Registry& Registry::global() {
  static Registry* instance = new Registry;  // leaked: outlives all users
  return *instance;
}

}  // namespace roomnet::telemetry
