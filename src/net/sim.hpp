// Deterministic discrete-event simulator.
//
// Every ITDOS deployment in this repository — replicas, clients, Group
// Manager elements, firewall proxies — executes as event handlers on one
// Simulator instance. Determinism is load-bearing: Byzantine scenarios,
// view changes and voting races replay identically for a given seed, which
// is what makes the paper's failure cases unit-testable.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "telemetry/telemetry.hpp"

namespace itdos::net {

/// Handle for a scheduled event; allows cancellation (timers). `slot` says
/// where the event's closure lives; `id` tells this event from a later one
/// that reuses the slot.
struct EventHandle {
  std::uint64_t id = 0;
  std::uint32_t slot = 0;
};

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1)
      : rng_(seed), telemetry_([this] { return now_; }) {}

  // The telemetry hub's clock captures `this`; pinning the address keeps it
  // valid for the simulator's lifetime.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }
  Rng& rng() { return rng_; }

  /// The telemetry seam every component instruments through.
  telemetry::Hub& telemetry() { return telemetry_; }
  const telemetry::Hub& telemetry() const { return telemetry_; }

  /// Schedules `fn` at absolute time `t` (clamped to now if in the past).
  /// Events at equal times fire in scheduling order (stable FIFO). The
  /// closure is moved once, into its slot. `owner`, when set, tags the
  /// event for cancel_owned.
  template <typename F>
  EventHandle schedule_at(SimTime t, F&& fn, const void* owner = nullptr) {
    const EventHandle handle = insert(t, owner);
    slots_[handle.slot].fn = std::forward<F>(fn);
    return handle;
  }

  /// Schedules `fn` `delay_ns` after now.
  template <typename F>
  EventHandle schedule_after(std::int64_t delay_ns, F&& fn, const void* owner = nullptr) {
    return schedule_at(now_ + delay_ns, std::forward<F>(fn), owner);
  }

  /// Cancels a scheduled event, destroying its closure at once; no-op if
  /// already fired or cancelled.
  void cancel(EventHandle handle);

  /// Cancels every pending event scheduled with `owner`.
  void cancel_owned(const void* owner);

  /// Runs the next event. Returns false if the queue is empty.
  bool step();

  /// Runs events until the queue is empty or `max_events` fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with timestamp <= deadline.
  std::size_t run_until(SimTime deadline);

  /// Runs events for `delay_ns` of simulated time from now.
  std::size_t run_for(std::int64_t delay_ns) { return run_until(now_ + delay_ns); }

  bool idle() const { return heap_.empty(); }
  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t events_executed() const { return executed_; }

  /// Closure slots ever allocated: never more than pending_events() has
  /// been at its highest.
  std::size_t slot_count() const { return slots_.size(); }

 private:
  // An indexed binary min-heap of the live events, ordered by (when, seq).
  // Each entry names the slot holding its closure, and each occupied slot
  // records where its entry sits in the heap, so cancel() removes the
  // entry, frees the slot and destroys the closure at once.
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;

    bool operator<(const Entry& other) const {
      if (when != other.when) return when < other.when;
      // itdos-lint: allow(EPOCH-001) local event tiebreaker; seq is assigned by this simulator and cannot wrap within a run
      return seq < other.seq;
    }
  };

  struct Slot {
    std::function<void()> fn;
    std::uint64_t id = 0;   // 0 while the slot is free
    std::uint32_t pos = 0;  // index of the slot's entry in heap_
    const void* owner = nullptr;
  };

  /// Takes a free slot for an event at `t` (clamped to now) and enters it
  /// in the heap; the caller fills in the closure.
  EventHandle insert(SimTime t, const void* owner);

  /// Removes the entry at heap index `pos`, frees its slot, and returns
  /// its closure.
  std::function<void()> remove(std::size_t pos);
  /// Moves `entry`, bound for the hole at heap index `pos`, up (or down)
  /// to where it orders, shifting the entries it passes into the hole.
  void sift_up(std::size_t pos, Entry entry);
  void sift_down(std::size_t pos, Entry entry);
  void place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    slots_[entry.slot].pos = static_cast<std::uint32_t>(pos);
  }

  SimTime now_;
  Rng rng_;
  telemetry::Hub telemetry_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace itdos::net
