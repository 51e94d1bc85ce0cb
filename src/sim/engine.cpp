#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/metrics.hpp"

namespace roomnet {

namespace {
struct LoopMetrics {
  telemetry::Counter& events_fired =
      telemetry::Registry::global().counter("roomnet_sim_events_fired");
  telemetry::Gauge& queue_highwater =
      telemetry::Registry::global().gauge("roomnet_sim_queue_depth_highwater");
};
LoopMetrics& loop_metrics() {
  static LoopMetrics metrics;
  return metrics;
}

/// The hot loop counts in locals; this publishes them once per run_until,
/// on normal return and on unwind alike.
struct Publish {
  std::uint64_t fired = 0;
  std::size_t highwater = 0;
  ~Publish() {
    LoopMetrics& metrics = loop_metrics();
    metrics.events_fired.inc(fired);
    metrics.queue_highwater.record_max(static_cast<std::int64_t>(highwater));
  }
};
}  // namespace

std::uint32_t EventLoop::push(SimTime at, std::uint64_t seq, Action action,
                              SimTime period) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  slots_[slot].action = std::move(action);
  slots_[slot].period = period;
  heap_.push_back(Key{at, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return slot;
}

void EventLoop::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.action = nullptr;
  s.period = SimTime{};
  s.cancelled = false;
  if (++s.generation == 0) s.generation = 1;
  free_.push_back(slot);
}

void EventLoop::schedule_at(SimTime at, Action action) {
  schedule_at(at, next_seq_++, std::move(action));
}

void EventLoop::schedule_at(SimTime at, std::uint64_t seq, Action action) {
  push(std::max(at, now_), seq, std::move(action), SimTime{});
}

std::uint64_t EventLoop::schedule_periodic(SimTime phase, SimTime period,
                                           Action action) {
  if (period <= SimTime{})
    throw std::invalid_argument("schedule_periodic: period must be positive");
  const std::uint32_t slot =
      push(now_ + phase, next_seq_++, std::move(action), period);
  // The generation is never 0, so no handle is 0: callers use 0 for "none".
  return (std::uint64_t{slots_[slot].generation} << 32) | slot;
}

void EventLoop::cancel_periodic(std::uint64_t handle) {
  const auto slot = static_cast<std::uint32_t>(handle);
  const auto generation = static_cast<std::uint32_t>(handle >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.generation != generation || s.period <= SimTime{} || s.cancelled)
    return;
  s.cancelled = true;
  ++cancelled_;
}

void EventLoop::run_until(SimTime end) {
  Publish publish;
  publish.highwater = heap_.size();
  while (!heap_.empty() && heap_.front().at <= end) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    now_ = key.at;
    Slot& slot = slots_[key.slot];
    if (slot.cancelled) {
      // The timer's one queue entry is being dropped: the cancellation is
      // fully applied, so the slot goes back on the free list.
      --cancelled_;
      release(key.slot);
      continue;
    }
    // Move the action out: the call may schedule events and grow the slab.
    Action action = std::move(slot.action);
    const bool periodic = slot.period > SimTime{};
    if (periodic) {
      heap_.push_back(Key{key.at + slot.period, next_seq_++, key.slot});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    } else {
      release(key.slot);
    }
    ++publish.fired;
    publish.highwater = std::max(publish.highwater, heap_.size());
    action();
    if (periodic) slots_[key.slot].action = std::move(action);
  }
  now_ = std::max(now_, end);
}

}  // namespace roomnet
