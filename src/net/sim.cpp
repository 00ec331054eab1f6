#include "net/sim.hpp"

#include <utility>

namespace itdos::net {

EventHandle Simulator::schedule_at(SimTime t, std::function<void()> fn) {
  if (t < now_) t = now_;
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const std::uint64_t id = next_id_++;
  slots_[slot].fn = std::move(fn);
  slots_[slot].id = id;
  queue_.push(Entry{t, next_seq_++, slot});
  ++live_events_;
  return EventHandle{id, slot};
}

EventHandle Simulator::schedule_after(std::int64_t delay_ns, std::function<void()> fn) {
  return schedule_at(now_ + delay_ns, std::move(fn));
}

void Simulator::cancel(EventHandle handle) {
  if (handle.id == 0 || handle.slot >= slots_.size()) return;
  Slot& slot = slots_[handle.slot];
  // A different id means the event fired and a later one took its slot.
  if (slot.id != handle.id || slot.cancelled) return;
  slot.cancelled = true;
  --live_events_;
}

std::function<void()> Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  std::function<void()> fn = std::exchange(s.fn, nullptr);
  s.id = 0;
  s.cancelled = false;
  free_slots_.push_back(slot);
  return fn;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const Entry top = queue_.top();
    queue_.pop();
    const bool cancelled = slots_[top.slot].cancelled;
    // The closure leaves its slot before it runs: a handler that schedules
    // may take the freed slot or grow the table.
    const std::function<void()> fn = release(top.slot);
    if (cancelled) continue;  // live_events_ already decremented at cancel()
    now_ = top.when;
    --live_events_;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && step()) ++count;
  return count;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t count = 0;
  while (!queue_.empty()) {
    const Entry top = queue_.top();
    // Drop cancelled heads so their timestamps don't gate progress.
    if (slots_[top.slot].cancelled) {
      queue_.pop();
      release(top.slot);
      continue;
    }
    if (top.when > deadline) break;
    step();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace itdos::net
