#include "net/sim.hpp"

#include <utility>

namespace itdos::net {

EventHandle Simulator::insert(SimTime t, const void* owner) {
  if (t < now_) t = now_;
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const std::uint64_t id = next_id_++;
  slots_[slot].id = id;
  slots_[slot].owner = owner;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{t, next_seq_++, slot});
  return EventHandle{id, slot};
}

void Simulator::cancel(EventHandle handle) {
  if (handle.id == 0 || handle.slot >= slots_.size()) return;
  const Slot& slot = slots_[handle.slot];
  // A different id means the event fired or was cancelled, and the slot
  // may since hold a later event.
  if (slot.id != handle.id) return;
  // The closure is destroyed here, after the heap and slot table are
  // consistent again: its captures' destructors may schedule or cancel.
  const std::function<void()> fn = remove(slot.pos);
}

void Simulator::cancel_owned(const void* owner) {
  std::vector<EventHandle> owned;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].id != 0 && slots_[i].owner == owner) {
      owned.push_back(EventHandle{slots_[i].id, i});
    }
  }
  for (const EventHandle handle : owned) cancel(handle);
}

std::function<void()> Simulator::remove(std::size_t pos) {
  Slot& s = slots_[heap_[pos].slot];
  std::function<void()> fn = std::exchange(s.fn, nullptr);
  s.id = 0;
  s.owner = nullptr;
  free_slots_.push_back(heap_[pos].slot);
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    if (pos > 0 && last < heap_[(pos - 1) / 2]) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }
  return fn;
}

void Simulator::sift_up(std::size_t pos, Entry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!(entry < heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void Simulator::sift_down(std::size_t pos, Entry entry) {
  const std::size_t size = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && heap_[child + 1] < heap_[child]) ++child;
    if (!(heap_[child] < entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, entry);
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  now_ = heap_.front().when;
  // The closure leaves its slot before it runs: a handler that schedules
  // may take the freed slot or grow the table.
  const std::function<void()> fn = remove(0);
  ++executed_;
  fn();
  return true;
}

std::size_t Simulator::run(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && step()) ++count;
  return count;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t count = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    step();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace itdos::net
