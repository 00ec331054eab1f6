#include "batch/former.hpp"

#include <utility>

namespace itdos::batch {

void Former::enqueue(BufView encoded, EntryClass cls, std::uint64_t trace, SimTime now,
                     BufView auth, const crypto::Digest& payload_digest) {
  if (cls != EntryClass::kRider) {
    pending_bytes_ += encoded.size();
    ++capped_pending_;
  }
  if (cls == EntryClass::kUrgent) ++urgent_pending_;
  pending_.push_back(
      PendingEntry{std::move(encoded), cls, trace, now, std::move(auth), payload_digest});
}

bool Former::ripe(SimTime now) const {
  if (pending_.empty()) return false;
  if (urgent_pending_ > 0) return true;
  // A rider never waits out a client entry's hold: both leave at once.
  if (capped_pending_ > 0 && capped_pending_ < pending_.size()) return true;
  if (capped_pending_ >= static_cast<std::size_t>(policy_.max_entries)) return true;
  if (pending_bytes_ >= policy_.max_bytes) return true;
  return now >= pending_.front().enqueued_at + policy_.max_hold_ns;
}

std::optional<SimTime> Former::deadline() const {
  if (pending_.empty()) return std::nullopt;
  return pending_.front().enqueued_at + policy_.max_hold_ns;
}

std::vector<PendingEntry> Former::form() {
  std::vector<PendingEntry> out;
  std::size_t capped = 0;
  std::size_t riders = 0;
  std::size_t bytes = 0;
  while (!pending_.empty()) {
    const PendingEntry& head = pending_.front();
    if (head.cls == EntryClass::kRider) {
      if (riders >= max_riders_) break;
      ++riders;
    } else {
      if (capped > 0 && (capped >= static_cast<std::size_t>(policy_.max_entries) ||
                         bytes + head.encoded.size() > policy_.max_bytes)) {
        break;
      }
      ++capped;
      bytes += head.encoded.size();
      pending_bytes_ -= head.encoded.size();
      --capped_pending_;
      if (head.cls == EntryClass::kUrgent) --urgent_pending_;
    }
    out.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  return out;
}

std::deque<PendingEntry> Former::take_all() {
  std::deque<PendingEntry> out = std::exchange(pending_, {});
  pending_bytes_ = 0;
  capped_pending_ = 0;
  urgent_pending_ = 0;
  return out;
}

}  // namespace itdos::batch
