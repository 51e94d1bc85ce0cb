#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/metrics.hpp"

namespace roomnet {

namespace {
// Resolved once; afterwards the hot loop touches only relaxed atomics.
struct LoopMetrics {
  telemetry::Counter& events_fired =
      telemetry::Registry::global().counter("roomnet_sim_events_fired");
  telemetry::Gauge& queue_highwater =
      telemetry::Registry::global().gauge("roomnet_sim_queue_depth_highwater");
  telemetry::Histogram& callback_latency = telemetry::Registry::global()
      .histogram("roomnet_sim_callback_latency_us");
};
LoopMetrics& loop_metrics() {
  static LoopMetrics metrics;
  return metrics;
}
}  // namespace

void EventLoop::schedule_at(SimTime at, Action action) {
  Event e;
  e.at = std::max(at, now_);
  e.seq = next_seq_++;
  e.action = std::move(action);
  queue_.push(std::move(e));
}

std::uint64_t EventLoop::schedule_periodic(SimTime phase, SimTime period,
                                           Action action) {
  const std::uint64_t handle = next_periodic_++;
  Event e;
  e.at = now_ + phase;
  e.seq = next_seq_++;
  e.action = std::move(action);
  e.periodic_handle = handle;
  e.period = period;
  queue_.push(std::move(e));
  return handle;
}

void EventLoop::cancel_periodic(std::uint64_t handle) {
  if (handle != 0) cancelled_.insert(handle);
}

void EventLoop::run_until(SimTime end) {
  LoopMetrics& metrics = loop_metrics();
  metrics.queue_highwater.record_max(static_cast<std::int64_t>(queue_.size()));
  while (!queue_.empty() && queue_.top().at <= end) {
    Event e = queue_.top();
    queue_.pop();
    now_ = e.at;
    if (e.periodic_handle != 0) {
      if (const auto it = cancelled_.find(e.periodic_handle);
          it != cancelled_.end()) {
        // The one queue entry carrying this handle is being dropped: the
        // cancellation is fully applied, so compact the bookkeeping.
        cancelled_.erase(it);
        continue;
      }
      Event next = e;
      next.at = e.at + e.period;
      next.seq = next_seq_++;
      next.action = e.action;
      queue_.push(std::move(next));
    }
    metrics.events_fired.inc();
    metrics.queue_highwater.record_max(
        static_cast<std::int64_t>(queue_.size()));
    if (telemetry::enabled()) {
      const auto start = std::chrono::steady_clock::now();
      e.action();
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      metrics.callback_latency.observe(static_cast<std::uint64_t>(us));
    } else {
      e.action();
    }
  }
  now_ = std::max(now_, end);
}

}  // namespace roomnet
