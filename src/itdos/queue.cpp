#include "itdos/queue.hpp"

#include <algorithm>
#include <limits>
#include <vector>

namespace itdos::core {

namespace {
const Bytes kAckReply = to_bytes("ITDOS-ACK");  // the paper's "static reply"
// The deterministic admission-shed reply: like kAckReply it is identical at
// every correct element, so the submitting BFT client still gets its f+1
// matching replies and does not retry a shed entry.
const Bytes kShedReply = to_bytes("ITDOS-SHED");
}  // namespace

QueueStateMachine::QueueStateMachine(QueueOptions options) : options_(std::move(options)) {
  if (options_.telemetry != nullptr) {
    telemetry::MetricsRegistry& reg = options_.telemetry->metrics();
    depth_gauge_ = &reg.gauge(telemetry::metric_name("queue", options_.self, "depth"));
    collected_counter_ =
        &reg.counter(telemetry::metric_name("queue", options_.self, "entries_collected"));
    shed_gauge_ = &reg.gauge(telemetry::metric_name("admission", options_.self, "shed"));
  }
}

void QueueStateMachine::trace(telemetry::TraceKind kind, std::uint64_t trace_id, std::uint64_t a,
                              std::uint64_t b) const {
  if (options_.telemetry != nullptr) options_.telemetry->trace(kind, options_.self, trace_id, a, b);
}

void QueueStateMachine::update_depth() const {
  if (depth_gauge_ != nullptr) depth_gauge_->set(static_cast<std::int64_t>(size()));
}

std::uint64_t QueueStateMachine::trace_of(ByteView request) const {
  const Result<QueueEntryKind> kind = queue_entry_kind(request);
  if (!kind.is_ok() || kind.value() != QueueEntryKind::kRequest) return 0;
  // Ids only; nothing retained.
  const Result<OrderedMsg> msg = OrderedMsg::decode(BufView::borrow(request));
  return msg.is_ok() ? telemetry::trace_id(msg.value().conn, msg.value().rid) : 0;
}

batch::EntryClass QueueStateMachine::classify(ByteView request) const {
  const Result<QueueEntryKind> kind = queue_entry_kind(request);
  if (!kind.is_ok()) return batch::EntryClass::kClient;
  switch (kind.value()) {
    case QueueEntryKind::kAck:
      return batch::EntryClass::kRider;
    case QueueEntryKind::kSyncPoint:
      return batch::EntryClass::kUrgent;
    case QueueEntryKind::kRequest:
      break;
  }
  return batch::EntryClass::kClient;
}

Bytes QueueStateMachine::execute(const BufView& request, const crypto::Digest& digest,
                                 NodeId client, SeqNum) {
  const Result<QueueEntryKind> kind = queue_entry_kind(request);
  if (!kind.is_ok()) return to_bytes("ITDOS-REJECT");  // deterministic rejection

  if (kind.value() == QueueEntryKind::kAck) {
    const Result<QueueAckMsg> ack = QueueAckMsg::decode(request);
    if (!ack.is_ok()) return to_bytes("ITDOS-REJECT");
    if (!options_.is_member(ack.value().element) ||
        (options_.orders_acks_for &&
         !options_.orders_acks_for(ack.value().element, client))) {
      return to_bytes("ITDOS-REJECT");  // rogue acks must not drive GC
    }
    // No element can have consumed past the last entry, so neither can the
    // GC floor its ack helps set.
    auto& recorded = acks_[ack.value().element];
    recorded = std::max(recorded, std::min(ack.value().consumed_index, next_index_));
    advance_base();
    return kAckReply;
  }

  // Admission control (DESIGN.md §6f): data entries arriving while the
  // replicated depth is at the bound are shed deterministically — the
  // decision reads only replicated state + static config, so every correct
  // element sheds the same entries and checkpoint digests keep agreeing.
  // Sync points are never shed (recovery must make progress under overload).
  if (kind.value() == QueueEntryKind::kRequest && options_.max_depth > 0 &&
      size() >= options_.max_depth) {
    ++sheds_;
    if (shed_gauge_ != nullptr) shed_gauge_->set(static_cast<std::int64_t>(sheds_));
    trace(telemetry::TraceKind::kAdmissionShed, trace_of(request), size(), options_.max_depth);
    if (on_shed_) on_shed_(request);
    return kShedReply;
  }

  // kRequest and kSyncPoint entries are both delivered to the consumer (the
  // sync point marks the exact queue position peers snapshot at). The entry
  // is a view into the BFT wire buffer — retained, not copied — kept with
  // the digest the replica already computed.
  entries_.push_back(bft::HeldBytes{request, digest});
  ++next_index_;
  trace(telemetry::TraceKind::kQueueAppend, trace_of(request), next_index_ - 1);
  update_depth();
  if (on_delivery_) on_delivery_();
  return kAckReply;
}

void QueueStateMachine::advance_base() {
  // The agreed GC floor is the (n-f)-th highest ack: n-f elements have
  // consumed at least that far, so at most f (faulty or lagging) have not.
  if (static_cast<int>(acks_.size()) < options_.n - options_.f) return;
  std::vector<std::uint64_t> indices;
  indices.reserve(acks_.size());
  for (const auto& [element, index] : acks_) indices.push_back(index);
  std::sort(indices.begin(), indices.end(), std::greater<>());
  std::uint64_t floor = indices[static_cast<std::size_t>(options_.n - options_.f - 1)];

  // Clamp: GC never passes the ack of a LIVE member — a correct element a
  // packet burst delayed must not have its unconsumed entries collected
  // (that would break it permanently; virtual synchrony is for members that
  // STOP participating). A member is declared dead once it trails the
  // quorum floor by more than 2x the lag window; dead members stop
  // constraining GC, get flagged by the laggard hook, and are expelled.
  if (!options_.members.empty()) {
    std::uint64_t min_live = std::numeric_limits<std::uint64_t>::max();
    for (NodeId member : options_.members) {
      const auto it = acks_.find(member);
      const std::uint64_t ack = it == acks_.end() ? 0 : it->second;
      if (ack + 2 * options_.lag_window >= floor) {
        min_live = std::min(min_live, ack);
      }
    }
    if (min_live != std::numeric_limits<std::uint64_t>::max()) {
      floor = std::min(floor, min_live);
    }
  }
  if (floor <= base_) return;
  const std::uint64_t collected = floor - base_;
  entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(collected));
  base_ = floor;
  trace(telemetry::TraceKind::kQueueGc, 0, base_, collected);
  if (collected_counter_ != nullptr) collected_counter_->inc(collected);
  update_depth();
  if (consumed_ < base_) {
    if (bootstrap_) {
      consumed_ = base_;  // placeholder cursor; real one comes from the bundle
    } else {
      // Our own unconsumed entries were collected: we broke the queue
      // management protocol and can no longer maintain equivalent state.
      broken_ = true;
      trace(telemetry::TraceKind::kQueueBroken, 0, base_);
    }
  }
  if (on_laggard_) {
    const auto flag_if_lagging = [&](NodeId element) {
      const auto it = acks_.find(element);
      const std::uint64_t index = it == acks_.end() ? 0 : it->second;
      if (base_ - std::min(index, base_) > options_.lag_window) {
        trace(telemetry::TraceKind::kQueueLaggard, 0, element.value);
        on_laggard_(element);
      }
    };
    // Check the member list, not just the ack map: a member that has NEVER
    // acked (stalled before its first ack) must still be flagged once GC
    // leaves it behind. Unit harnesses with no member list keep the
    // ack-map behavior.
    if (!options_.members.empty()) {
      for (NodeId member : options_.members) flag_if_lagging(member);
    } else {
      for (const auto& [element, index] : acks_) flag_if_lagging(element);
    }
  }
}

std::optional<BufView> QueueStateMachine::next() {
  std::optional<BufView> entry = peek();
  if (entry) pop();
  return entry;
}

std::optional<BufView> QueueStateMachine::peek() const {
  if (!has_next() || consumed_ < base_) return std::nullopt;
  return entries_[consumed_ - base_].bytes;
}

void QueueStateMachine::pop() {
  if (!has_next()) return;
  if (consumed_ < base_) {
    // Entry below base (collected) — cannot happen while !broken_, but keep
    // the invariant check defensive.
    broken_ = true;
    return;
  }
  ++consumed_;
}

bft::AppSnapshot QueueStateMachine::snapshot() const {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, 24 + 16 * acks_.size());
  enc.write_uint64(base_);
  enc.write_uint64(next_index_);
  enc.write_uint32(static_cast<std::uint32_t>(acks_.size()));
  for (const auto& [element, index] : acks_) {
    enc.write_uint64(element.value);
    enc.write_uint64(index);
  }
  return {enc.take(), {entries_.begin(), entries_.end()}};
}

Status QueueStateMachine::restore(const bft::AppSnapshot& snapshot) {
  cdr::Decoder dec(snapshot.state, cdr::ByteOrder::kLittleEndian);
  std::uint64_t base = 0;
  std::uint64_t next = 0;
  ITDOS_ASSIGN_OR_RETURN(base, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(next, dec.read_uint64());
  if (next < base || next - base != snapshot.held.size()) {
    return error(Errc::kMalformedMessage, "queue window does not match its entries");
  }
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t ack_count, dec.read_uint32());
  if (ack_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile queue ack count");
  }
  std::map<NodeId, std::uint64_t> acks;
  for (std::uint32_t i = 0; i < ack_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t element, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t index, dec.read_uint64());
    acks[NodeId(element)] = index;
  }

  // Virtual synchrony: we can only adopt the queue if our consumption point
  // is still inside the retained window — otherwise the entries we would
  // need to replay are gone and our servant state can never converge. A
  // bootstrapping replacement element is exempt: it has no history and will
  // receive certified servant state at a sync point instead.
  if (consumed_ < base && !bootstrap_) {
    broken_ = true;
    trace(telemetry::TraceKind::kQueueBroken, 0, base);
    return error(Errc::kFailedPrecondition,
                 "queue GC passed this element's consumption point; element "
                 "must be expelled (virtual synchrony)");
  }
  entries_.assign(snapshot.held.begin(), snapshot.held.end());
  base_ = base;
  next_index_ = next;
  acks_ = std::move(acks);
  update_depth();
  if (bootstrap_ && consumed_ < base_) consumed_ = base_;  // placeholder cursor
  if (on_delivery_ && has_next()) on_delivery_();
  return Status::ok();
}

Status QueueStateMachine::complete_bootstrap(std::uint64_t consumed_index) {
  if (!bootstrap_) {
    return error(Errc::kFailedPrecondition, "queue is not bootstrapping");
  }
  if (consumed_index < base_) {
    return error(Errc::kFailedPrecondition,
                 "GC passed the sync point; a fresh sync is required");
  }
  if (consumed_index > next_index_) {
    // The bundle is ahead of our (BFT-level) queue: we have not caught up to
    // the sync point yet. Keep bootstrapping; the caller retries when the
    // queue advances.
    return error(Errc::kUnavailable, "queue has not reached the sync point yet");
  }
  consumed_ = consumed_index;
  bootstrap_ = false;
  if (on_delivery_ && has_next()) on_delivery_();
  return Status::ok();
}

}  // namespace itdos::core
