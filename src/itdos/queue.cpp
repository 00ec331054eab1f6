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

/// Composite fragment-stream key for the shed set.
std::uint64_t stream_key(ConnectionId conn, RequestId rid) {
  return (conn.value << 32) | (rid.value & 0xFFFFFFFFULL);
}
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
  if (!kind.is_ok()) return 0;
  const BufView scoped = BufView::borrow(request);  // ids only; nothing retained
  if (kind.value() == QueueEntryKind::kRequest) {
    const Result<OrderedMsg> msg = OrderedMsg::decode(scoped);
    if (msg.is_ok()) return telemetry::trace_id(msg.value().conn, msg.value().rid);
  } else if (kind.value() == QueueEntryKind::kFragment) {
    const Result<FragmentMsg> msg = FragmentMsg::decode(scoped);
    if (msg.is_ok()) return telemetry::trace_id(msg.value().conn, msg.value().rid);
  }
  return 0;
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
    case QueueEntryKind::kFragment:
      break;
  }
  return batch::EntryClass::kClient;
}

Bytes QueueStateMachine::execute(const BufView& request, NodeId client, SeqNum seq) {
  (void)seq;
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
  if ((kind.value() == QueueEntryKind::kRequest ||
       kind.value() == QueueEntryKind::kFragment) &&
      should_shed(request, kind.value())) {
    ++sheds_;
    if (shed_gauge_ != nullptr) shed_gauge_->set(static_cast<std::int64_t>(sheds_));
    trace(telemetry::TraceKind::kAdmissionShed, trace_of(request), size(), options_.max_depth);
    if (on_shed_) on_shed_(request);
    return kShedReply;
  }

  // kRequest and kSyncPoint entries are both delivered to the consumer (the
  // sync point marks the exact queue position peers snapshot at). The entry
  // is a view into the BFT wire buffer — retained, not copied.
  entries_[next_index_++] = request;
  trace(telemetry::TraceKind::kQueueAppend, trace_of(request), next_index_ - 1);
  update_depth();
  if (on_delivery_) on_delivery_();
  return kAckReply;
}

bool QueueStateMachine::should_shed(const BufView& request, QueueEntryKind kind) {
  const bool over = options_.max_depth > 0 && size() >= options_.max_depth;
  if (kind == QueueEntryKind::kRequest) return over;

  // Fragments: admission is per message, decided at the first fragment. A
  // shed stream's continuations shed too (otherwise reassembly would stall
  // forever on a hole); an admitted stream's continuations are always
  // admitted so the already-queued fragments can complete.
  const Result<FragmentMsg> msg = FragmentMsg::decode(request);
  if (!msg.is_ok()) return false;  // malformed; let the consumer discard it
  const std::uint64_t key = stream_key(msg.value().conn, msg.value().rid);
  const bool last = msg.value().index + 1 >= msg.value().total;
  if (shed_streams_.contains(key)) {
    if (last) shed_streams_.erase(key);
    return true;
  }
  if (msg.value().index != 0 || !over) return false;
  if (!last) shed_streams_.insert(key);
  return true;
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
  entries_.erase(entries_.begin(), entries_.lower_bound(floor));
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
  if (!has_next()) return std::nullopt;
  const auto it = entries_.find(consumed_);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void QueueStateMachine::pop() {
  if (!has_next()) return;
  if (!entries_.contains(consumed_)) {
    // Entry below base (collected) — cannot happen while !broken_, but keep
    // the invariant check defensive.
    broken_ = true;
    return;
  }
  ++consumed_;
}

Bytes QueueStateMachine::snapshot() const {
  // The fixed fields and their worst-case pads fit in 64 bytes; each entry
  // is at most pad, index, length and its bytes.
  std::size_t bound = 64 + 16 * acks_.size() + 8 * shed_streams_.size();
  for (const auto& [index, data] : entries_) bound += 7 + 8 + 4 + data.size();
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, bound);
  enc.write_uint64(base_);
  enc.write_uint64(next_index_);
  enc.write_uint32(static_cast<std::uint32_t>(entries_.size()));
  for (const auto& [index, data] : entries_) {
    enc.write_uint64(index);
    enc.write_bytes(data);
  }
  enc.write_uint32(static_cast<std::uint32_t>(acks_.size()));
  for (const auto& [element, index] : acks_) {
    enc.write_uint64(element.value);
    enc.write_uint64(index);
  }
  enc.write_uint32(static_cast<std::uint32_t>(shed_streams_.size()));
  for (const std::uint64_t key : shed_streams_) enc.write_uint64(key);
  return enc.take();
}

Status QueueStateMachine::restore(ByteView snapshot) {
  cdr::Decoder dec(snapshot, cdr::ByteOrder::kLittleEndian);
  std::uint64_t base = 0;
  std::uint64_t next = 0;
  ITDOS_ASSIGN_OR_RETURN(base, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(next, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t entry_count, dec.read_uint32());
  if (entry_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile queue entry count");
  }
  std::map<std::uint64_t, BufView> entries;
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t index, dec.read_uint64());
    // Snapshots arrive as borrowed ByteViews; entries must own their bytes.
    ITDOS_ASSIGN_OR_RETURN(Bytes data, dec.read_bytes());
    entries[index] = BufView(std::move(data));
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
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t shed_count, dec.read_uint32());
  if (shed_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile queue shed count");
  }
  std::set<std::uint64_t> shed_streams;
  for (std::uint32_t i = 0; i < shed_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t key, dec.read_uint64());
    shed_streams.insert(key);
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
  entries_ = std::move(entries);
  base_ = base;
  next_index_ = next;
  acks_ = std::move(acks);
  shed_streams_ = std::move(shed_streams);
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
