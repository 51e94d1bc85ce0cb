// Discrete-event simulation engine. Single-threaded, virtual time only;
// events fire in (time, insertion-order) order so runs are deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "netcore/time.hpp"

namespace roomnet {

/// A binary min-heap of 24-byte `(at, seq, slot)` keys over a recycled slab
/// of actions. The heap moves only keys; an action stays in its slot from
/// scheduling until it fires, and a fired slot is reused by the next event.
class EventLoop {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `at` (clamped to now).
  void schedule_at(SimTime at, Action action);
  /// Schedules `action` at `at` (clamped to now) under a sequence number
  /// taken from reserve_seqs() instead of the next fresh one. The caller
  /// must keep its reserved keys monotone: use each seq once, and never
  /// schedule a key `(at, seq)` that sorts before the event now firing.
  /// Then the event fires exactly where it would have, had it been
  /// scheduled when its seq was reserved.
  void schedule_at(SimTime at, std::uint64_t seq, Action action);
  /// Schedules `action` after `delay`.
  void schedule_in(SimTime delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }
  /// Reserves `n` consecutive sequence numbers and returns the first, so a
  /// caller can schedule a long series lazily, one event at a time, with
  /// the keys an up-front schedule would have given it.
  std::uint64_t reserve_seqs(std::uint64_t n) {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }
  /// Schedules `action` every `period`, first firing at now + phase.
  /// Returns a nonzero handle that can be cancelled. Throws
  /// std::invalid_argument when `period` is not positive: such a timer
  /// would re-arm at the same instant forever.
  std::uint64_t schedule_periodic(SimTime phase, SimTime period, Action action);
  /// Stops a periodic timer. Cancelling 0, an already-cancelled timer or a
  /// handle whose timer is gone is a no-op.
  void cancel_periodic(std::uint64_t handle);

  /// Runs all events up to and including `end`; leaves now() == end. Not
  /// reentrant: an action must not call run_until.
  void run_until(SimTime end);
  /// Queued events, periodic timers included (and cancelled ones until the
  /// loop reaches their next firing and drops them).
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// Cancelled periodic timers whose queue entry has not been reaped yet.
  /// Bounded by the number of live periodic timers: each is reaped when the
  /// loop reaches its next firing.
  [[nodiscard]] std::size_t cancelled_pending() const { return cancelled_; }

 private:
  struct Key {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO within a timestamp
    std::uint32_t slot;
  };
  /// Heap order: `a` fires after `b`.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Slot {
    Action action;
    SimTime period;  // positive for periodic timers, zero for one-shots
    std::uint32_t generation = 1;  // bumped on release; never 0
    bool cancelled = false;
  };

  /// Stores `action` in a free slot and queues its key; returns the slot.
  std::uint32_t push(SimTime at, std::uint64_t seq, Action action,
                     SimTime period);
  void release(std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::size_t cancelled_ = 0;
};

}  // namespace roomnet
