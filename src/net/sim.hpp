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
#include <queue>
#include <vector>

#include "common/buffer.hpp"
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

  /// The deployment-wide message arena: marshal buffers are acquired here
  /// and their capacity returns when the last in-flight view drops.
  Arena& arena() { return arena_; }

  /// Schedules `fn` at absolute time `t` (clamped to now if in the past).
  /// Events at equal times fire in scheduling order (stable FIFO).
  EventHandle schedule_at(SimTime t, std::function<void()> fn);

  /// Schedules `fn` `delay_ns` after now.
  EventHandle schedule_after(std::int64_t delay_ns, std::function<void()> fn);

  /// Cancels a scheduled event; no-op if already fired or cancelled.
  void cancel(EventHandle handle);

  /// Runs the next event. Returns false if the queue is empty.
  bool step();

  /// Runs events until the queue is empty or `max_events` fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  /// Runs events with timestamp <= deadline.
  std::size_t run_until(SimTime deadline);

  /// Runs events for `delay_ns` of simulated time from now.
  std::size_t run_for(std::int64_t delay_ns) { return run_until(now_ + delay_ns); }

  bool idle() const { return live_events_ == 0; }
  std::size_t pending_events() const { return live_events_; }
  std::uint64_t events_executed() const { return executed_; }

  /// Queue entries, cancelled ones not yet popped included.
  std::size_t queued_entries() const { return queue_.size(); }
  /// Closure slots ever allocated: never more than queued_entries() has
  /// been at its highest.
  std::size_t slot_count() const { return slots_.size(); }

 private:
  // A queue entry names the slot holding its closure. Every entry owns its
  // slot from schedule until it is popped, whether it then fires or was
  // cancelled.
  struct Entry {
    SimTime when;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;

    bool operator>(const Entry& other) const {
      if (when != other.when) return when > other.when;
      // itdos-lint: allow(EPOCH-001) local event tiebreaker; seq is assigned by this simulator and cannot wrap within a run
      return seq > other.seq;
    }
  };

  struct Slot {
    std::function<void()> fn;
    std::uint64_t id = 0;  // 0 while the slot is free
    bool cancelled = false;
  };

  /// Takes the closure out of a popped entry's slot and frees the slot.
  std::function<void()> release(std::uint32_t slot);

  SimTime now_;
  Rng rng_;
  telemetry::Hub telemetry_;
  Arena arena_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_events_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace itdos::net
