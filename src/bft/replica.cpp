#include "bft/replica.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "batch/batch_msg.hpp"
#include "common/counters.hpp"
#include "common/log.hpp"
#include "crypto/sha256.hpp"

namespace itdos::bft {

namespace {

constexpr std::string_view kLog = "bft.replica";

/// Digest binding a checkpoint's state to its sequence number.
Digest checkpoint_digest(std::uint64_t seq, ByteView state) {
  std::uint8_t seq_bytes[8];
  for (int i = 0; i < 8; ++i) seq_bytes[i] = static_cast<std::uint8_t>(seq >> (i * 8));
  return crypto::Sha256().update(ByteView(seq_bytes, 8)).update(state).finish();
}

/// Timestamps a correct client could currently be using: clients number
/// requests sequentially and pipeline at most kMaxPipelineDepth, so a live
/// timestamp is never more than one sparse-window width past the client's
/// executed prefix. A backup checks each pre-prepare entry's client tag,
/// but a NEW-VIEW's re-proposals are taken on their view-change
/// certificates, whose prepared proofs are their senders' signed claims,
/// so one Byzantine replica can still get timestamps ordered for a victim
/// client that the client never sent; tracking them would overflow the
/// victim's bounded TsWindows and prune the floor over live, never-executed
/// timestamps — the victim's real requests would then read as executed
/// duplicates (with no cached reply) forever. Implausible timestamps are
/// ignored instead of tracked: never executed, never marked. The skip is
/// deterministic because the executed window is replicated state — at a
/// given execution point every correct replica holds the same floor.
bool plausible_timestamp(const TsWindow& executed, std::uint64_t ts) {
  return counters::before_eq(ts, executed.floor() + TsWindow::kMaxSparse);
}

}  // namespace

Replica::Replica(net::Network& net, NodeId id, BftConfig config,
                 const SessionKeys& keys, crypto::SigningKey signing_key,
                 std::shared_ptr<const crypto::Keystore> keystore,
                 std::unique_ptr<StateMachine> app)
    : Process(net, id),
      config_(std::move(config)),
      self_rank_(config_.rank_of(id)),
      keys_(keys),
      signing_key_(std::move(signing_key)),
      keystore_(std::move(keystore)),
      app_(std::move(app)),
      tel_(&net.sim().telemetry()),
      former_(config_.batch, config_.max_riders()) {
  assert(config_.validate().is_ok());
  assert(config_.is_replica(id));
  for (NodeId replica : config_.replicas) {
    if (replica != id) peers_.push_back(replica);
  }
  peer_tags_.resize(peers_.size());
  // Every entry starts at seq 0, which is never inside the window.
  log_.resize(static_cast<std::size_t>(config_.watermark_window()));
  auto& reg = tel_->metrics();
  const auto counter = [&](std::string_view name) {
    return &reg.counter(telemetry::metric_name("bft", id, name));
  };
  metrics_.requests_received = counter("requests_received");
  metrics_.pre_prepares_sent = counter("pre_prepares_sent");
  metrics_.prepares_sent = counter("prepares_sent");
  metrics_.commits_sent = counter("commits_sent");
  metrics_.replies_sent = counter("replies_sent");
  metrics_.checkpoints_sent = counter("checkpoints_sent");
  metrics_.view_changes_sent = counter("view_changes_sent");
  metrics_.new_views_sent = counter("new_views_sent");
  metrics_.executed = counter("executed");
  metrics_.state_transfers = counter("state_transfers");
  metrics_.auth_failures = counter("auth_failures");
  metrics_.malformed = counter("malformed");
  metrics_.macs_computed = counter("macs_computed");
  metrics_.inflight = &reg.gauge(telemetry::metric_name("bft", id, "inflight"));
  metrics_.exec_latency_ns = &reg.histogram("bft.exec_latency_ns");
  metrics_.batch_size = &reg.histogram("batch.size");
  metrics_.batch_hold_ns = &reg.histogram("batch.hold_ns");
  join(config_.group);
  // The state at seq 0 is the genesis snapshot; it seeds state transfer for
  // replicas that fall behind before the first checkpoint.
  stable_ = make_checkpoint(0);
  // Open the view-0 span: forensics segment a replica's timeline on
  // view.start / view.end pairs (see enter_view).
  tel_->trace(telemetry::TraceKind::kViewStart, id, 0, view_.value);
}

// ---------------------------------------------------------------------------
// Packet dispatch
// ---------------------------------------------------------------------------

void Replica::on_packet(const net::Packet& packet) {
  if (packet.from == id()) return;  // own traffic; its state was recorded at send
  Result<Envelope> decoded = Envelope::decode(packet.payload);
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  const Envelope env = std::move(decoded).take();
  if (env.type == MsgType::kRequest) {
    // Verified inside: a primary drops a relayed copy of a request it has
    // already proposed before any MAC work.
    handle_request(env, packet.payload);
    return;
  }
  if (const Status s = verify_envelope(env); !s.is_ok()) {
    reject(env, s);
    return;
  }
  switch (env.type) {
    case MsgType::kRequest: break;  // handled above
    case MsgType::kPrePrepare: handle_pre_prepare(env); break;
    case MsgType::kPrepare: handle_prepare(env); break;
    case MsgType::kCommit: handle_commit(env); break;
    case MsgType::kCheckpoint: handle_checkpoint(env); break;
    case MsgType::kViewChange: handle_view_change(env); break;
    case MsgType::kNewView: handle_new_view(env); break;
    case MsgType::kStateRequest: handle_state_request(env); break;
    case MsgType::kStateResponse: handle_state_response(env); break;
    case MsgType::kReply: break;  // replicas do not consume replies
  }
}

void Replica::reject(const Envelope& env, const Status& why) {
  metrics_.auth_failures->inc();
  ITDOS_DEBUG(kLog) << id().to_string() << " rejects " << msg_type_name(env.type) << " from "
                    << env.sender.to_string() << ": " << why.to_string();
}

Status Replica::verify_envelope(const Envelope& env, Digest* request_digest) {
  // A PRE-PREPARE's and a REQUEST's authenticators cover its fixed header;
  // a body without a whole header carries nothing they could have covered.
  if (env.type == MsgType::kPrePrepare && env.body.size() < kPrePrepareHeaderSize) {
    return error(Errc::kAuthFailure, "PRE-PREPARE shorter than its authenticated header");
  }
  if (env.type == MsgType::kRequest && env.body.size() < kRequestHeaderSize) {
    return error(Errc::kAuthFailure, "REQUEST shorter than its authenticated header");
  }
  // A REQUEST's tags cover its payload's digest: the one hash of the
  // payload this replica makes, handed back for the proposal digest.
  Digest digest{};
  if (env.type == MsgType::kRequest) digest = payload_digest(env.body);
  if (request_digest != nullptr) *request_digest = digest;
  if (env.signature) {
    return keystore_->verify(env.sender, env.body, *env.signature);
  }
  const std::optional<crypto::MacTag> tag = env.tag_for(id());
  if (!tag) {
    return error(Errc::kAuthFailure, "no authenticator entry for this replica");
  }
  // An empty third segment leaves any other message's CMAC input as it is.
  std::array<ByteView, 3> input;
  if (env.type == MsgType::kRequest) {
    input = request_mac_input(env.body, digest);
  } else {
    const std::array<ByteView, 2> whole = mac_input(env.type, env.body);
    input = {whole[0], whole[1], ByteView()};
  }
  // A client's pair (and this replica's own, which no peer tags with) goes
  // through SessionKeys::verify, which caches a pair only once a tag
  // verifies under it.
  const int rank = config_.rank_of(env.sender);
  const crypto::CmacKey* key =
      rank >= 0 ? replica_keys().by_rank[static_cast<std::size_t>(rank)] : nullptr;
  const bool valid = key != nullptr ? key->verify(input, *tag)
                                    : keys_.verify(env.sender, id(), input, *tag);
  if (!valid) return error(Errc::kAuthFailure, "bad MAC");
  return Status::ok();
}

bool Replica::entry_authentic(NodeId client, const batch::BatchEntry& entry,
                              const Digest& payload) const {
  const std::optional<crypto::MacTag> tag = AuthVector(entry.auth).find(id());
  return tag && keys_.verify(client, id(), request_mac_input(entry.request, payload), *tag);
}

// ---------------------------------------------------------------------------
// Sending helpers
// ---------------------------------------------------------------------------

void Replica::multicast_frame(Frame& frame) {
  if (byz_.silent) return;
  // The tags cover the body in place, in the chunk the frame is sent in.
  crypto::cmac_tags(replica_keys().peers, mac_input(frame.type(), frame.body()), peer_tags_);
  metrics_.macs_computed->inc(peer_tags_.size());
  if (byz_.corrupt_macs) {
    for (crypto::MacTag& tag : peer_tags_) tag[0] ^= 0xFF;  // forged MAC: receivers must reject
  }
  multicast_to(config_.group, frame.seal_tags(peers_, peer_tags_));
}

const Replica::ReplicaKeys& Replica::replica_keys() {
  if (replica_keys_.by_rank.empty()) {
    for (NodeId replica : config_.replicas) {
      const crypto::CmacKey* key = replica == id() ? nullptr : &keys_.mac_key(id(), replica);
      replica_keys_.by_rank.push_back(key);
      if (key != nullptr) replica_keys_.peers.push_back(key);
    }
  }
  return replica_keys_;
}

const crypto::CmacKey& Replica::key_for(NodeId to) {
  // A peer replica's key comes from the by-rank table; anyone else's (this
  // replica itself included, when a peer echoes its own VIEW-CHANGE back
  // at it) goes through SessionKeys.
  const int rank = config_.rank_of(to);
  const crypto::CmacKey* key =
      rank >= 0 ? replica_keys().by_rank[static_cast<std::size_t>(rank)] : nullptr;
  return key != nullptr ? *key : keys_.mac_key(id(), to);
}

void Replica::send_frame(NodeId to, Frame& frame, const crypto::CmacKey& key) {
  if (byz_.silent) return;
  crypto::MacTag tag = key.tag(mac_input(frame.type(), frame.body()));
  metrics_.macs_computed->inc();
  if (byz_.corrupt_macs) tag[0] ^= 0xFF;
  send_to(to, frame.seal_tags(std::span<const NodeId>(&to, 1),
                              std::span<const crypto::MacTag>(&tag, 1)));
}

void Replica::replay_stale_view_change() {
  if (last_view_change_envelope_.empty()) return;
  multicast_to(config_.group, last_view_change_envelope_);
}

void Replica::enter_view(ViewId view) {
  if (view.value == active_view_.value) return;
  tel_->trace(telemetry::TraceKind::kViewEnd, id(), 0, active_view_.value);
  tel_->trace(telemetry::TraceKind::kViewStart, id(), 0, view.value);
  active_view_ = view;
}

// ---------------------------------------------------------------------------
// Normal case
// ---------------------------------------------------------------------------

bool Replica::in_window(std::uint64_t seq) const {
  return counters::in_window(seq, stable_seq_,
                             static_cast<std::uint64_t>(config_.watermark_window()));
}

void Replica::handle_request(const Envelope& env, const BufView& wire) {
  Result<RequestMsg> decoded = RequestMsg::decode(env.body);
  if (decoded.is_ok() && decoded.value().client == env.sender && is_primary() &&
      !in_view_change_) {
    // A backup's relay (or a client's retransmission) of a request this
    // primary has already proposed changes nothing, so it is dropped before
    // any MAC work. Only reads: nothing unverified reaches the client table.
    const RequestMsg& copy = decoded.value();
    const auto known = clients_.find(copy.client);
    if (known != clients_.end() && !known->second.executed.contains(copy.timestamp) &&
        known->second.proposed.contains(copy.timestamp)) {
      metrics_.requests_received->inc();
      tel_->trace(telemetry::TraceKind::kBftRequest, id(), app_->trace_of(copy.payload));
      return;
    }
  }
  Digest payload{};
  if (const Status s = verify_envelope(env, &payload); !s.is_ok()) {
    reject(env, s);
    return;
  }
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  const RequestMsg request = std::move(decoded).take();
  if (request.client != env.sender) {
    metrics_.auth_failures->inc();  // spoofed client id
    return;
  }
  metrics_.requests_received->inc();
  tel_->trace(telemetry::TraceKind::kBftRequest, id(), app_->trace_of(request.payload));

  ClientRecord& record = clients_[request.client];
  if (record.executed.contains(request.timestamp)) {
    // Duplicate of an executed request: retransmit the cached reply (the
    // cache is windowed; requests older than it get nothing — the client
    // has long moved on).
    const auto cached = record.replies.find(request.timestamp);
    if (cached != record.replies.end()) send_reply(record, request, cached->second);
    return;
  }
  if (in_view_change_) {
    // No primary to order it yet: the next view gets it (hand_over_held).
    hold_request(record, request.timestamp, wire);
    return;
  }

  if (is_primary()) {
    if (record.proposed.contains(request.timestamp)) return;  // already in pipeline
    record.proposed.insert(request.timestamp);
    former_.enqueue(env.body, app_->classify(request.payload),
                    app_->trace_of(request.payload), now(), env.auth.wire(), payload);
    pump_former();
    arm_request_timer();
  } else {
    // Relay the (still client-authenticated) request to the primary and
    // hold the primary accountable for ordering it. The relay is kept
    // until it executes, so a view change does not lose it.
    if (!record.forwarded.contains(request.timestamp)) {
      record.forwarded.insert(request.timestamp);
      hold_request(record, request.timestamp, wire);
      if (!byz_.silent) send_to(config_.primary_for(view_), wire);
      arm_request_timer();
    }
  }
}

void Replica::hold_request(ClientRecord& record, std::uint64_t ts, BufView envelope) {
  // The bound is the client's own: a correct client's timestamps in flight
  // span fewer than 2 * pipeline_depth (Client::pump). Beyond it, the
  // lowest go first; they are the likeliest to have executed elsewhere.
  if (!plausible_timestamp(record.executed, ts)) return;
  record.held.try_emplace(ts, std::move(envelope));
  while (record.held.size() > 2 * static_cast<std::size_t>(config_.pipeline_depth)) {
    record.held.erase(record.held.begin());
  }
}

std::size_t Replica::held_requests() const {
  std::size_t held = 0;
  for (const auto& [client, record] : clients_) held += record.held.size();
  return held;
}

void Replica::pump_former() {
  const auto next_slot_open = [this] {
    return in_window(std::max(next_seq_, last_executed_) + 1);
  };
  const bool proposing = is_primary() && !in_view_change_;
  if (proposing) {
    while (former_.ripe(now()) && next_slot_open()) propose_batch(former_.form());
  }
  // (Re)arm the hold timer for the oldest still-parked entry, so a batch
  // that never fills its caps still flushes after max_hold_ns. Only while
  // the next slot is inside the window: with the window full an entry past
  // its deadline would re-arm the timer at once, forever. Every path that
  // advances the low watermark pumps again instead (make_stable,
  // after_install, adopt_new_view).
  if (hold_timer_armed_) {
    cancel_timer(hold_timer_);
    hold_timer_armed_ = false;
  }
  if (!proposing || !next_slot_open()) return;
  if (const std::optional<SimTime> deadline = former_.deadline()) {
    // Not ripe, so the deadline is still ahead.
    hold_timer_armed_ = true;
    hold_timer_ = set_timer(*deadline - now(), [this] {
      hold_timer_armed_ = false;
      pump_former();
    });
  }
}

void Replica::propose_batch(std::vector<batch::PendingEntry> entries) {
  if (entries.empty()) return;
  const std::uint64_t seq = std::max(next_seq_, last_executed_) + 1;
  next_seq_ = seq;

  // Each entry carries the authenticators its client sent, so every backup
  // checks its own tag; the proposal digest reads the payload digests
  // computed when the requests were verified, not the payloads.
  batch::BatchMsg batch;
  batch.entries.reserve(entries.size());
  ProposalDigest digest(entries.size());
  for (const batch::PendingEntry& e : entries) {
    batch.entries.push_back(batch::BatchEntry{e.encoded, e.auth});
    digest.add(e.encoded, e.payload_digest);
  }

  PrePrepareMsg pp;
  pp.view = view_;
  pp.seq = SeqNum(seq);
  pp.request = batch.encode();  // the one marshal of the batch
  pp.req_digest = digest.finish();

  LogEntry& entry = entry_at(seq);
  entry.pre_prepare = pp;
  entry.payload_digests.clear();
  for (const batch::PendingEntry& e : entries) entry.payload_digests.push_back(e.payload_digest);
  entry.first_seen = now();
  if (counters::after(seq, top_logged_)) top_logged_ = seq;
  // The batch metrics count the entries the caps count: riders leave
  // batch.size and batch.hold_ns as they would read without them.
  std::int64_t capped = 0;
  for (const batch::PendingEntry& e : entries) {
    if (entry.trace == 0) entry.trace = e.trace;
    if (e.cls == batch::EntryClass::kRider) continue;
    ++capped;
    metrics_.batch_hold_ns->record(now() - e.enqueued_at);
  }
  if (capped > 0) metrics_.batch_size->record(capped);

  if (byz_.equivocate) {
    // Equivocating primary: internally consistent but CONFLICTING proposals
    // for the same (view, seq). The lie mutates the FIRST entry's payload
    // (still a decodable batch with a valid digest, but the client's tags
    // no longer match it); even-rank backups get the real batch, odd-rank
    // backups the lie. Neither side can gather a matching quorum; the
    // view-change timeout is the documented recovery.
    batch::BatchMsg lie_batch = batch;
    if (Result<RequestMsg> first = RequestMsg::decode(batch.entries.front().request);
        first.is_ok()) {
      RequestMsg lie_request = first.value();
      Bytes lie_payload = lie_request.payload.clone_bytes();  // copy-on-write
      lie_payload.push_back(0x5a);
      lie_request.payload = BufView(std::move(lie_payload));
      cdr::Encoder lie_entry(cdr::ByteOrder::kLittleEndian, lie_request.size_hint());
      lie_request.write(lie_entry);
      lie_batch.entries.front().request = lie_entry.take_view();
    }
    PrePrepareMsg lie = pp;
    lie.request = lie_batch.encode();
    lie.req_digest = proposal_digest(lie_batch);
    for (int rank = 0; rank < config_.n(); ++rank) {
      const NodeId backup = config_.replicas[static_cast<std::size_t>(rank)];
      if (backup == id()) continue;
      const PrePrepareMsg& variant = (rank % 2 == 0) ? pp : lie;
      send_authenticated(backup, variant);
    }
  } else {
    multicast_authenticated(pp);
  }
  metrics_.pre_prepares_sent->inc();
  update_inflight_gauge();
  tel_->trace(telemetry::TraceKind::kBftPrePrepare, id(), entry.trace, view_.value, seq);
  arm_request_timer();
}

void Replica::update_inflight_gauge() {
  const std::int64_t inflight =
      std::max<std::int64_t>(0, counters::distance(next_seq_, last_executed_));
  metrics_.inflight->set(inflight);
}

void Replica::handle_pre_prepare(const Envelope& env) {
  if (env.sender != config_.primary_for(view_)) return;  // only the primary proposes
  Result<PrePrepareMsg> decoded = PrePrepareMsg::decode(env.body);
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  const PrePrepareMsg pp = std::move(decoded).take();
  if (pp.view != view_) return;
  const std::uint64_t seq = pp.seq.value;
  if (in_view_change_) {
    // view_ is the view being changed to and the sender its primary, which
    // proposes right after sending NEW-VIEW: this proposal overtook it.
    buffer_for_next_view(env, seq);
    return;
  }
  if (!in_window(seq)) {
    observe_seq(seq);  // may reveal that we are far behind
    return;
  }

  // The authenticators cover only the header, so the digest is what binds
  // the piggybacked batch (or is the null digest). This runs however the
  // envelope was authenticated, and a mismatch counts like a bad MAC.
  std::uint64_t trace = 0;
  bool authentic = true;  // every entry carries a valid tag for this replica
  std::vector<Digest>& payloads = checked_digests_;  // each entry's, for execution
  payloads.clear();
  if (pp.is_null_request()) {
    if (pp.req_digest != Digest{}) {
      metrics_.auth_failures->inc();
      return;
    }
  } else {
    Result<batch::BatchMsg> decoded_batch = batch::BatchMsg::decode(pp.request);
    if (!decoded_batch.is_ok()) {
      metrics_.malformed->inc();
      return;
    }
    // A batch is accepted (and later executed) only as a whole. Every entry
    // must be a decodable request, and the batch must respect the
    // cluster's formation policy, not just the protocol-wide ceiling:
    // fairness and per-slot execution cost are sized to the configured
    // caps, and only a misbehaving primary packs past them. Mirror the
    // former's cut rule — riders sit outside the caps but at most
    // max_riders ride along, and a single capped entry may exceed the byte
    // cap on its own, a multi-entry batch may not. The caps count request
    // frames, not authenticators, and are checked before any tag.
    const std::vector<batch::BatchEntry>& entries = decoded_batch.value().entries;
    std::size_t capped = 0;
    std::size_t capped_bytes = 0;
    std::size_t riders = 0;
    for (const batch::BatchEntry& entry_bytes : entries) {
      Result<RequestMsg> request = RequestMsg::decode(entry_bytes.request);
      if (!request.is_ok()) {
        metrics_.malformed->inc();
        return;
      }
      if (app_->classify(request.value().payload) == batch::EntryClass::kRider) {
        ++riders;
      } else {
        ++capped;
        capped_bytes += entry_bytes.request.size();
      }
    }
    if (capped > static_cast<std::size_t>(config_.batch.max_entries) ||
        (capped > 1 && capped_bytes > config_.batch.max_bytes) ||
        riders > config_.max_riders()) {
      metrics_.malformed->inc();
      return;
    }
    // One pass over each payload: its digest feeds the proposal digest,
    // this replica's check of the client's tag and, at execution, the
    // application. (Decoded above; decoding again, views only, is cheaper
    // than keeping every request.)
    ProposalDigest digest(entries.size());
    for (const batch::BatchEntry& entry_bytes : entries) {
      const RequestMsg request = RequestMsg::decode(entry_bytes.request).take();
      if (trace == 0) trace = app_->trace_of(request.payload);
      const Digest& payload = payloads.emplace_back(payload_digest(entry_bytes.request));
      digest.add(entry_bytes.request, payload);
      authentic = authentic && entry_authentic(request.client, entry_bytes, payload);
    }
    if (digest.finish() != pp.req_digest) {
      metrics_.auth_failures->inc();
      return;
    }
    // Remember each proposal so retransmissions are not re-forwarded, but
    // only requests their clients sent, and never fabricated far-future
    // timestamps (see plausible_timestamp): they would prune the bounded
    // dedup windows over live requests.
    for (const batch::BatchEntry& entry_bytes : entries) {
      if (!authentic) break;
      const RequestMsg request = RequestMsg::decode(entry_bytes.request).take();
      ClientRecord& record = clients_[request.client];
      if (plausible_timestamp(record.executed, request.timestamp)) {
        record.proposed.insert(request.timestamp);
      }
    }
  }

  LogEntry& entry = entry_at(seq);
  if (entry.pre_prepare && counters::before(entry.pre_prepare->view.value, pp.view.value) &&
      !entry.committed) {
    // The logged proposal is from a DEAD view and never committed. The
    // current view's primary owns this seq now; without superseding the
    // stale entry, its digest would make the fresh proposal look like a
    // duplicate and no backup would ever prepare it — the group would
    // view-change forever (uncommitted entries are exactly the ones a
    // new-view certificate may not carry). The votes stay: this view's
    // PREPAREs and COMMITs may overtake its PRE-PREPARE, and a dead view's
    // count toward nothing (see votes_of).
    entry.pre_prepare.reset();
    entry.trace = 0;
    entry.first_seen = SimTime{-1};
  }
  if (entry.pre_prepare && entry.pre_prepare->req_digest != pp.req_digest) {
    // Conflicting proposal for (view, seq): Byzantine primary. Keep the
    // first; the view-change timeout deals with the equivocation.
    return;
  }
  if (entry.pre_prepare) return;  // duplicate
  entry.pre_prepare = pp;
  entry.payload_digests.assign(payloads.begin(), payloads.end());
  entry.trace = trace;
  entry.first_seen = now();
  if (counters::after(seq, top_logged_)) top_logged_ = seq;

  if (!authentic) {
    // An entry whose client did not tag it for this replica: a primary that
    // made it up, or a client whose tag for this replica alone is bad. Send
    // no PREPARE, but keep the proposal: 2f matching PREPAREs from the
    // other replicas include one from a correct replica that checked its
    // own tag, and then this replica commits with them.
    metrics_.auth_failures->inc();
    arm_request_timer();
    maybe_send_commit(seq);
    return;
  }

  PrepareMsg prepare;
  prepare.view = view_;
  prepare.seq = pp.seq;
  prepare.req_digest = pp.req_digest;
  prepare.replica = id();
  votes_of(entry, self_rank_).prepare = pp.req_digest;
  multicast_authenticated(prepare);
  metrics_.prepares_sent->inc();
  tel_->trace(telemetry::TraceKind::kBftPrepare, id(), entry.trace, view_.value, seq);
  arm_request_timer();
  maybe_send_commit(seq);
}

void Replica::handle_prepare(const Envelope& env) {
  const int rank = config_.rank_of(env.sender);
  if (rank < 0) return;
  Result<PrepareMsg> decoded = PrepareMsg::decode(env.body);
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  const PrepareMsg msg = std::move(decoded).take();
  if (msg.view != view_ || msg.replica != env.sender) return;
  if (!in_window(msg.seq.value)) return;
  if (env.sender == config_.primary_for(view_)) return;  // primary never prepares
  if (in_view_change_) {
    buffer_for_next_view(env, msg.seq.value);  // from a backup that adopted first
    return;
  }
  votes_of(entry_at(msg.seq.value), rank).prepare = msg.req_digest;
  maybe_send_commit(msg.seq.value);
}

Replica::LogEntry* Replica::find_entry(std::uint64_t seq) {
  if (in_window(seq)) {
    LogEntry& entry = log_[seq % log_.size()];
    return entry.seq == seq ? &entry : nullptr;
  }
  const auto it = log_ahead_.find(seq);
  return it == log_ahead_.end() ? nullptr : &it->second;
}

Replica::LogEntry& Replica::entry_at(std::uint64_t seq) {
  assert(counters::after(seq, stable_seq_));
  if (!in_window(seq)) {
    const auto [it, inserted] = log_ahead_.try_emplace(seq);
    if (inserted) clear_entry(it->second, seq);
    return it->second;
  }
  LogEntry& entry = log_[seq % log_.size()];
  if (entry.seq != seq) clear_entry(entry, seq);
  return entry;
}

void Replica::clear_entry(LogEntry& entry, std::uint64_t seq) const {
  entry.seq = seq;
  entry.pre_prepare.reset();
  entry.payload_digests.clear();
  entry.votes.assign(config_.replicas.size(), RankVotes{});
  entry.votes_view = view_;
  entry.prepared.reset();
  entry.committed = false;
  entry.executed = false;
  entry.trace = 0;
  entry.first_seen = SimTime{-1};
}

void Replica::truncate_log() {
  // An entry at or below the low watermark already reads as empty (it is
  // outside the window); dropping its proposal releases the batch bytes.
  for (LogEntry& entry : log_) {
    if (counters::before_eq(entry.seq, stable_seq_)) {
      entry.pre_prepare.reset();
      entry.payload_digests.clear();
      entry.prepared.reset();
    }
  }
  const auto window = static_cast<std::uint64_t>(config_.watermark_window());
  while (!log_ahead_.empty() &&
         counters::before_eq(log_ahead_.begin()->first, stable_seq_ + window)) {
    auto node = log_ahead_.extract(log_ahead_.begin());
    // The slot's current entry is from an earlier lap: while node.key() was
    // past the window, nothing in the ring could hold it.
    if (counters::after(node.key(), stable_seq_)) {
      LogEntry& slot = log_[node.key() % log_.size()];
      assert(slot.seq != node.key());
      slot = std::move(node.mapped());
    }
  }
}

Replica::RankVotes& Replica::votes_of(LogEntry& entry, int rank) {
  if (entry.votes_view != view_) {
    // Votes of an earlier view must not count toward this one: neither in a
    // certificate of mixed views for a digest this view proposes again, nor
    // as this replica's own COMMIT, which would stop it sending this view's.
    // What they proved stays in `entry.prepared`.
    for (RankVotes& votes : entry.votes) votes = RankVotes{};
    entry.votes_view = view_;
  }
  return entry.votes[static_cast<std::size_t>(rank)];
}

bool Replica::entry_prepared(const LogEntry& entry) const {
  // A proposal is prepared by votes of its own view only.
  if (!entry.pre_prepare || entry.votes_view != entry.pre_prepare->view) return false;
  int matching = 0;
  for (const RankVotes& votes : entry.votes) {
    if (votes.prepare == entry.pre_prepare->req_digest) ++matching;
  }
  return matching >= 2 * config_.f;
}

void Replica::maybe_send_commit(std::uint64_t seq) {
  // handle_commit calls in after executing, which may have moved the low
  // watermark past `seq`.
  LogEntry* const found = find_entry(seq);
  if (found == nullptr || !entry_prepared(*found)) return;
  LogEntry& entry = *found;
  if (entry.votes_view != view_) return;  // prepared in a dead view
  if (!entry.prepared || entry.prepared->view != view_) entry.prepared = entry.pre_prepare;
  RankVotes& own = votes_of(entry, self_rank_);
  if (own.commit) return;  // commit already sent
  CommitMsg commit;
  commit.view = view_;
  commit.seq = SeqNum(seq);
  commit.req_digest = entry.pre_prepare->req_digest;
  commit.replica = id();
  own.commit = commit.req_digest;
  multicast_authenticated(commit);
  metrics_.commits_sent->inc();
  tel_->trace(telemetry::TraceKind::kBftCommit, id(), entry.trace, view_.value, seq);
  if (entry_committed(entry)) {
    entry.committed = true;
    try_execute();
  }
}

void Replica::handle_commit(const Envelope& env) {
  const int rank = config_.rank_of(env.sender);
  if (rank < 0) return;
  Result<CommitMsg> decoded = CommitMsg::decode(env.body);
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  const CommitMsg msg = std::move(decoded).take();
  if (msg.view != view_ || msg.replica != env.sender) return;
  if (in_view_change_) {
    buffer_for_next_view(env, msg.seq.value);
    return;
  }
  if (!in_window(msg.seq.value)) {
    observe_seq(msg.seq.value);
    return;
  }
  LogEntry& entry = entry_at(msg.seq.value);
  votes_of(entry, rank).commit = msg.req_digest;
  if (entry_committed(entry)) {
    entry.committed = true;
    try_execute();
  }
  maybe_send_commit(msg.seq.value);
}

bool Replica::entry_committed(const LogEntry& entry) const {
  if (!entry_prepared(entry)) return false;
  int matching = 0;
  for (const RankVotes& votes : entry.votes) {
    if (votes.commit == entry.pre_prepare->req_digest) ++matching;
  }
  return matching >= config_.quorum();
}

void Replica::try_execute() {
  while (true) {
    LogEntry* const entry = find_entry(last_executed_ + 1);
    if (entry == nullptr || !entry->committed || entry->executed) break;
    execute_entry(last_executed_ + 1, *entry);
  }
  // Liveness timer: keep it armed while ordered-but-unexecuted work exists.
  // A logged pre-prepare leaves the log only once the low watermark passes
  // it, so one is above the execution point exactly when the highest is.
  bool pending = counters::after(top_logged_, last_executed_);
  for (const auto& [client, record] : clients_) {
    // Relayed but not executed. (Requests parked in the primary's former do
    // not count: the hold timer or the next stable checkpoint proposes them,
    // and a client that retransmits makes the backups relay and time them.)
    if (record.forwarded.floor() != 0 &&
        !record.executed.contains(record.forwarded.floor())) {
      pending = true;
      break;
    }
    for (const std::uint64_t ts : record.forwarded.sparse()) {
      if (!record.executed.contains(ts)) {
        pending = true;
        break;
      }
    }
    if (pending) break;
  }
  if (!pending) disarm_request_timer();
}

void Replica::execute_entry(std::uint64_t seq, LogEntry& entry) {
  entry.executed = true;
  last_executed_ = seq;
  if (entry.first_seen.ns >= 0) {
    metrics_.exec_latency_ns->record(now() - entry.first_seen);
  }
  tel_->trace(telemetry::TraceKind::kBftExecute, id(), entry.trace, seq);
  if (execution_observer_) execution_observer_(SeqNum(seq), entry.pre_prepare->req_digest);
  if (!entry.pre_prepare->is_null_request()) {
    // Unpack the batch and execute its entries in formation order; each
    // request gets its own dedup decision and its own REPLY. (The batch was
    // validated entry-by-entry at pre-prepare time; a decode failure here
    // would mean the digest check was bypassed, so just skip.)
    Result<batch::BatchMsg> batch = batch::BatchMsg::decode(entry.pre_prepare->request);
    if (batch.is_ok()) {
      const std::vector<batch::BatchEntry>& entries = batch.value().entries;
      // Every path that logs a proposal records its entries' digests.
      assert(entry.payload_digests.size() == entries.size());
      for (std::size_t i = 0; i < entries.size() && i < entry.payload_digests.size(); ++i) {
        Result<RequestMsg> decoded = RequestMsg::decode(entries[i].request);
        if (decoded.is_ok()) execute_request(decoded.value(), entry.payload_digests[i], seq);
      }
    }
  }
  update_inflight_gauge();
  if (seq % static_cast<std::uint64_t>(config_.checkpoint_interval) == 0) {
    take_checkpoint(seq);
  }
}

void Replica::execute_request(const RequestMsg& request, const Digest& digest,
                              std::uint64_t seq) {
  ClientRecord& record = clients_[request.client];
  if (!record.executed.contains(request.timestamp)) {
    if (!plausible_timestamp(record.executed, request.timestamp)) {
      // A fabricated far-future timestamp (only a forged prepared proof in
      // a VIEW-CHANGE can order one; see plausible_timestamp). Executing it
      // would let enough of them prune the executed window's floor over the
      // client's live timestamps. Skip it entirely: the executed window is
      // replicated state, so every correct replica skips identically.
      return;
    }
    record.replies[request.timestamp] =
        app_->execute(request.payload, digest, request.client, SeqNum(seq));
    record.executed.insert(request.timestamp);
    if (counters::after(request.timestamp, record.last_timestamp)) {
      record.last_timestamp = request.timestamp;
    }
    while (record.replies.size() > 2 * static_cast<std::size_t>(config_.pipeline_depth)) {
      record.replies.erase(record.replies.begin());
    }
    if (!record.held.empty()) {
      std::erase_if(record.held,
                    [&](const auto& held) { return record.executed.contains(held.first); });
    }
    metrics_.executed->inc();
  }
  // Reply only from cache. A duplicate whose cached reply was evicted gets
  // nothing (like the handle_request retransmit path): correct replicas
  // evict identically, so answering with an empty placeholder would let
  // f+1 of them form a bogus quorum at a client still awaiting the result.
  const auto cached = record.replies.find(request.timestamp);
  if (cached != record.replies.end()) send_reply(record, request, cached->second);
}

void Replica::send_reply(ClientRecord& record, const RequestMsg& request,
                         const Bytes& result) {
  ReplyMsg reply;
  reply.view = view_;
  reply.timestamp = request.timestamp;
  reply.client = request.client;
  reply.replica = id();
  // The frame copies the cached bytes in; the borrow ends with this call.
  reply.result = BufView::borrow(result);
  if (record.reply_key == nullptr) record.reply_key = &keys_.mac_key(id(), request.client);
  send_authenticated(request.client, reply, *record.reply_key);
  metrics_.replies_sent->inc();
}

// ---------------------------------------------------------------------------
// Checkpoints and state transfer
// ---------------------------------------------------------------------------

Replica::Checkpoint Replica::make_checkpoint(std::uint64_t seq) const {
  // State = client table + application state. The client table must be
  // part of the checkpointed state or a recovering replica would re-execute
  // retransmitted requests. The executed window (floor + sparse set) and
  // the reply cache are replicated state: every correct replica executes
  // the same requests in the same order, so the encodings agree byte-wise.
  // The application's held entries enter by their digests only.
  const AppSnapshot app = app_->snapshot();
  // Each client record's fixed fields and pads fit in 48 bytes; each cached
  // reply is at most pad, timestamp, length and its bytes.
  std::size_t bound = 4 + 7 + app.state.size() + 7 + 4 + crypto::kDigestSize * app.held.size();
  for (const auto& [client, record] : clients_) {
    bound += 48 + 8 * record.executed.sparse().size();
    for (const auto& [ts, reply] : record.replies) bound += 7 + 8 + 4 + reply.size();
  }
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, bound);
  enc.write_uint32(static_cast<std::uint32_t>(clients_.size()));
  for (const auto& [client, record] : clients_) {
    enc.write_uint64(client.value);
    enc.write_uint64(record.last_timestamp);
    enc.write_uint64(record.executed.floor());
    enc.write_uint32(static_cast<std::uint32_t>(record.executed.sparse().size()));
    for (const std::uint64_t ts : record.executed.sparse()) enc.write_uint64(ts);
    enc.write_uint32(static_cast<std::uint32_t>(record.replies.size()));
    for (const auto& [ts, reply] : record.replies) {
      enc.write_uint64(ts);
      enc.write_bytes(reply);
    }
  }
  enc.write_bytes(app.state);
  enc.write_uint32(static_cast<std::uint32_t>(app.held.size()));
  Checkpoint checkpoint;
  checkpoint.held.reserve(app.held.size());
  for (const HeldBytes& held : app.held) {
    enc.write_raw(crypto::digest_view(held.digest));
    checkpoint.held.push_back(held.bytes);
  }
  checkpoint.state = enc.take();
  checkpoint.digest = checkpoint_digest(seq, checkpoint.state);
  return checkpoint;
}

Bytes Replica::serialize(const Checkpoint& checkpoint) {
  // `state` leads, so every field keeps the alignment it was written at.
  std::size_t bound = checkpoint.state.size();
  for (const BufView& held : checkpoint.held) bound += 3 + 4 + held.size();
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, bound);
  enc.write_raw(checkpoint.state);
  for (const BufView& held : checkpoint.held) enc.write_bytes(held);
  return enc.take();
}

Status Replica::install_snapshot(std::uint64_t seq, const Digest& digest,
                                 const BufView& snapshot) {
  cdr::Decoder dec(snapshot, cdr::ByteOrder::kLittleEndian);
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t client_count, dec.read_uint32());
  if (client_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile snapshot client count");
  }
  std::map<NodeId, ClientRecord> clients;
  for (std::uint32_t i = 0; i < client_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t client, dec.read_uint64());
    ClientRecord record;
    ITDOS_ASSIGN_OR_RETURN(record.last_timestamp, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t exec_floor, dec.read_uint64());
    record.executed.reset_to(exec_floor);
    ITDOS_ASSIGN_OR_RETURN(std::uint32_t sparse_count, dec.read_uint32());
    if (sparse_count > dec.remaining()) {
      return error(Errc::kMalformedMessage, "hostile snapshot sparse count");
    }
    for (std::uint32_t j = 0; j < sparse_count; ++j) {
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t ts, dec.read_uint64());
      record.executed.insert(ts);
    }
    ITDOS_ASSIGN_OR_RETURN(std::uint32_t reply_count, dec.read_uint32());
    if (reply_count > dec.remaining()) {
      return error(Errc::kMalformedMessage, "hostile snapshot reply count");
    }
    for (std::uint32_t j = 0; j < reply_count; ++j) {
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t ts, dec.read_uint64());
      ITDOS_ASSIGN_OR_RETURN(record.replies[ts], dec.read_bytes());
    }
    record.proposed = record.executed;
    record.forwarded = record.executed;
    clients[NodeId(client)] = record;
  }
  AppSnapshot app;
  ITDOS_ASSIGN_OR_RETURN(app.state, dec.read_bytes());
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t held_count, dec.read_uint32());
  if (held_count > dec.remaining() / crypto::kDigestSize) {
    return error(Errc::kMalformedMessage, "hostile snapshot held count");
  }
  app.held.resize(held_count);
  for (HeldBytes& held : app.held) {
    ITDOS_ASSIGN_OR_RETURN(held.digest, dec.read_array<crypto::kDigestSize>());
  }
  // The digest covers everything up to here: the state, held digests
  // included. Each held entry must then match its digest.
  const ByteView state = snapshot.bytes().first(dec.offset());
  if (checkpoint_digest(seq, state) != digest) {
    return error(Errc::kAuthFailure, "snapshot does not match checkpoint digest");
  }
  for (HeldBytes& held : app.held) {
    ITDOS_ASSIGN_OR_RETURN(held.bytes, dec.read_bytes_view());
    if (crypto::sha256(held.bytes) != held.digest) {
      return error(Errc::kAuthFailure, "held snapshot entry does not match its digest");
    }
  }
  ITDOS_RETURN_IF_ERROR(app_->restore(app));

  // Held requests the installed state has not executed stay held. (Only
  // for clients the snapshot names: a record this replica alone made would
  // change its next snapshot's bytes.)
  for (auto& [client, old] : clients_) {
    const auto fresh = clients.find(client);
    if (fresh == clients.end()) continue;
    for (auto& [ts, envelope] : old.held) {
      if (!fresh->second.executed.contains(ts)) {
        hold_request(fresh->second, ts, std::move(envelope));
      }
    }
  }
  clients_ = std::move(clients);
  last_executed_ = seq;
  stable_seq_ = seq;
  stable_.state = Bytes(state.begin(), state.end());
  stable_.held.clear();
  for (HeldBytes& held : app.held) stable_.held.push_back(std::move(held.bytes));
  stable_.digest = digest;
  // Drop everything at or below the installed checkpoint.
  truncate_log();
  checkpoint_votes_.erase(checkpoint_votes_.begin(), checkpoint_votes_.upper_bound(seq));
  pending_checkpoints_.erase(pending_checkpoints_.begin(),
                             pending_checkpoints_.upper_bound(seq));
  metrics_.state_transfers->inc();
  tel_->trace(telemetry::TraceKind::kBftStateTransfer, id(), 0, seq);
  try_execute();
  return Status::ok();
}

void Replica::take_checkpoint(std::uint64_t seq) {
  Checkpoint& checkpoint = pending_checkpoints_[seq] = make_checkpoint(seq);
  CheckpointMsg msg;
  msg.seq = SeqNum(seq);
  msg.state_digest = checkpoint.digest;
  msg.replica = id();
  multicast_authenticated(msg);
  metrics_.checkpoints_sent->inc();
  tel_->trace(telemetry::TraceKind::kBftCheckpoint, id(), 0, seq);
  process_checkpoint_vote(msg);
}

void Replica::handle_checkpoint(const Envelope& env) {
  if (config_.rank_of(env.sender) < 0) return;
  Result<CheckpointMsg> decoded = CheckpointMsg::decode(env.body);
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  const CheckpointMsg msg = std::move(decoded).take();
  if (msg.replica != env.sender) return;
  if (counters::before_eq(msg.seq.value, stable_seq_)) return;
  process_checkpoint_vote(msg);
}

int Replica::checkpoint_support(std::uint64_t seq, const Digest& digest) const {
  const auto votes = checkpoint_votes_.find(seq);
  if (votes == checkpoint_votes_.end()) return 0;
  return static_cast<int>(std::count(votes->second.begin(), votes->second.end(), digest));
}

void Replica::process_checkpoint_vote(const CheckpointMsg& msg) {
  auto& votes = checkpoint_votes_[msg.seq.value];
  votes.resize(config_.replicas.size());
  votes[static_cast<std::size_t>(config_.rank_of(msg.replica))] = msg.state_digest;
  if (checkpoint_support(msg.seq.value, msg.state_digest) < config_.quorum()) return;
  if (counters::before_eq(msg.seq.value, stable_seq_)) return;

  const auto local = pending_checkpoints_.find(msg.seq.value);
  if (local != pending_checkpoints_.end() && local->second.digest == msg.state_digest) {
    make_stable(msg.seq.value);
  } else {
    // We have not reached (or disagree with) this checkpoint: fetch state
    // from a replica in the certificate.
    request_state_transfer(msg.seq.value, msg.state_digest);
  }
}

void Replica::make_stable(std::uint64_t seq) {
  stable_seq_ = seq;
  stable_ = std::move(pending_checkpoints_[seq]);
  truncate_log();
  checkpoint_votes_.erase(checkpoint_votes_.begin(), checkpoint_votes_.upper_bound(seq));
  pending_checkpoints_.erase(pending_checkpoints_.begin(),
                             pending_checkpoints_.upper_bound(seq));
  pump_former();  // the window moved: parked requests may take slots now
}

void Replica::request_state_transfer(std::uint64_t seq, const Digest& digest) {
  if (state_transfer_target_ && counters::after_eq(state_transfer_target_->first, seq)) return;
  state_transfer_target_ = {seq, digest};
  // Ask the lowest-numbered other replica that vouched for this checkpoint.
  const auto votes = checkpoint_votes_.find(seq);
  if (votes == checkpoint_votes_.end()) return;
  std::optional<NodeId> voucher;
  for (std::size_t rank = 0; rank < votes->second.size(); ++rank) {
    const NodeId replica = config_.replicas[rank];
    if (replica == id() || votes->second[rank] != digest) continue;
    if (!voucher || replica < *voucher) voucher = replica;
  }
  if (!voucher) return;
  StateRequestMsg msg;
  msg.seq = SeqNum(seq);
  msg.requester = id();
  send_authenticated(*voucher, msg);
}

void Replica::handle_state_request(const Envelope& env) {
  if (config_.rank_of(env.sender) < 0) return;
  Result<StateRequestMsg> decoded = StateRequestMsg::decode(env.body);
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  const StateRequestMsg msg = std::move(decoded).take();
  if (msg.requester != env.sender) return;
  StateResponseMsg response;
  response.replica = id();
  response.view = view_;
  if (counters::after_eq(stable_seq_, msg.seq.value)) {
    // Prefer the stable checkpoint: identical across correct replicas, so
    // requesters assemble the f+1 weak certificate immediately.
    response.seq = SeqNum(stable_seq_);
    response.state_digest = stable_.digest;
    response.snapshot = serialize(stable_);
  } else if (counters::after_eq(last_executed_, msg.seq.value)) {
    // Catch-up beyond the last stable checkpoint: a fresh snapshot of the
    // current execution point (peers at the same point produce identical
    // bytes, so the weak certificate still forms).
    const Checkpoint current = make_checkpoint(last_executed_);
    response.seq = SeqNum(last_executed_);
    response.snapshot = serialize(current);
    response.state_digest = current.digest;
  } else {
    return;  // cannot help
  }
  send_authenticated(env.sender, response);
}

void Replica::request_catch_up() {
  StateRequestMsg request;
  request.seq = SeqNum(last_executed_ + 1);
  request.requester = id();
  multicast_authenticated(request);
}

void Replica::observe_seq(std::uint64_t seq) {
  max_observed_seq_ = std::max(max_observed_seq_, seq);
  if (in_window(seq) || counters::before_eq(seq, stable_seq_)) return;
  if (catch_up_cooldown_) return;
  // Authenticated traffic beyond our window: the group has moved on without
  // us. Ask for state (f+1 matching responses certify it) and back off.
  catch_up_cooldown_ = true;
  request_catch_up();
  set_timer(config_.view_change_timeout_ns * 2, [this] {
    catch_up_cooldown_ = false;
    if (max_observed_seq_ > last_executed_ &&
        !in_window(max_observed_seq_)) {
      observe_seq(max_observed_seq_);  // still behind: probe again
    }
  });
}

void Replica::help_laggard(NodeId laggard) {
  // A peer's VIEW-CHANGE revealed it is behind a group that is otherwise
  // live (nobody joins its view change). Send it our current state; f+1
  // matching offers let it rejoin (the Castro-Liskov implementation's
  // status/retransmission mechanism serves this role).
  StateResponseMsg response;
  response.replica = id();
  response.view = view_;
  const Checkpoint current = make_checkpoint(last_executed_);
  response.seq = SeqNum(last_executed_);
  response.snapshot = serialize(current);
  response.state_digest = current.digest;
  send_authenticated(laggard, response);
}

void Replica::after_install(ViewId sender_view) {
  state_transfer_target_.reset();
  state_offers_.erase(state_offers_.begin(),
                      state_offers_.upper_bound(last_executed_));
  // If observed traffic shows we are STILL behind (e.g. we installed an old
  // stable checkpoint but commits continued past it), keep probing.
  if (max_observed_seq_ > last_executed_ && !catch_up_cooldown_) {
    catch_up_cooldown_ = true;
    set_timer(config_.view_change_timeout_ns, [this] {
      catch_up_cooldown_ = false;
      if (max_observed_seq_ > last_executed_) request_catch_up();
    });
  }
  // A replica that fell behind may have been spinning in view changes the
  // rest of the group never joined; those view advances were unilateral and
  // the certified snapshot proves the group is live. Abandon the inflated
  // view and rejoin normal operation in the helper's view. (The residual
  // risk — our stale VIEW-CHANGE being used in a later NEW-VIEW — is
  // mitigated by recipients keeping only the LATEST view-change per sender;
  // see DESIGN.md.)
  if (in_view_change_ || counters::after(sender_view.value, view_.value)) {
    view_ = sender_view;
  }
  in_view_change_ = false;
  view_change_attempts_ = 0;
  next_view_msgs_.clear();
  enter_view(view_);
  disarm_request_timer();
  pump_former();  // an installed checkpoint may have opened the window
}

void Replica::handle_state_response(const Envelope& env) {
  if (config_.rank_of(env.sender) < 0) return;
  Result<StateResponseMsg> decoded = StateResponseMsg::decode(env.body);
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  StateResponseMsg msg = std::move(decoded).take();
  if (counters::before(msg.seq.value, last_executed_)) return;  // nothing new
  if (msg.seq.value == last_executed_ && !in_view_change_) return;
  // seq == last_executed_ while in a view change is the "stuck but current"
  // case: our spurious timeout started a view change nobody joined; f+1
  // peers attesting the state we already hold prove the group is live and
  // let us rejoin (handled below at certification time).

  // Strong certification: the response matches a pending target derived
  // from a 2f+1 checkpoint certificate, or such a certificate exists.
  bool certified = false;
  if (state_transfer_target_ && msg.seq.value == state_transfer_target_->first &&
      msg.state_digest == state_transfer_target_->second) {
    certified = true;
  } else {
    certified = checkpoint_support(msg.seq.value, msg.state_digest) >= config_.quorum();
  }
  if (!certified) {
    // Weak certificate: f+1 distinct replicas offering the same snapshot
    // digest — at least one of them is correct.
    if (!in_window(msg.seq.value) &&
        counters::after(msg.seq.value, stable_seq_ + 2 *
        static_cast<std::uint64_t>(config_.watermark_window()))) {
      return;  // hostile far-future offer; bound memory
    }
    auto& per_seq = state_offers_[msg.seq.value];
    if (per_seq.size() >= 8 && !per_seq.contains(msg.state_digest)) return;
    std::set<NodeId>& senders = per_seq[msg.state_digest];
    senders.insert(env.sender);
    certified = static_cast<int>(senders.size()) >= config_.f + 1;
  }
  if (!certified) return;
  if (msg.seq.value == last_executed_) {
    // Rejoin-without-install: verify the attested state matches what we
    // already executed, then simply resume in the peers' view.
    if (make_checkpoint(last_executed_).digest == msg.state_digest) {
      after_install(msg.view);
    }
    return;
  }
  // Held entries stay views into the one received buffer.
  if (const Status s =
          install_snapshot(msg.seq.value, msg.state_digest, BufView(std::move(msg.snapshot)));
      !s.is_ok()) {
    reject(env, s);
    return;
  }
  after_install(msg.view);
}

// ---------------------------------------------------------------------------
// View change
// ---------------------------------------------------------------------------

void Replica::arm_request_timer() {
  if (request_timer_armed_) return;
  request_timer_armed_ = true;
  request_timer_ = set_timer(config_.view_change_timeout_ns, [this] {
    request_timer_armed_ = false;
    on_request_timeout();
  });
}

void Replica::disarm_request_timer() {
  if (!request_timer_armed_) return;
  cancel_timer(request_timer_);
  request_timer_armed_ = false;
}

void Replica::on_request_timeout() {
  ITDOS_INFO(kLog) << id().to_string() << " timeout in view " << view_.to_string()
                   << (in_view_change_ ? " (view change stalled)" : "");
  start_view_change(ViewId(view_.value + 1));
}

void Replica::start_view_change(ViewId new_view) {
  if (counters::before_eq(new_view.value, view_.value) && in_view_change_) return;
  if (counters::before_eq(new_view.value, highest_view_change_sent_.value)) return;
  highest_view_change_sent_ = new_view;
  view_ = new_view;
  in_view_change_ = true;
  disarm_request_timer();
  next_view_msgs_.clear();  // messages of a view this one abandons
  // Parked formation entries outlive the view: the demoted primary holds
  // their client-authenticated envelopes, and once it adopts the next view
  // it relays them to that view's primary (hand_over_held), so no client
  // has to retransmit them.
  hand_over_former();
  if (hold_timer_armed_) {
    cancel_timer(hold_timer_);
    hold_timer_armed_ = false;
  }

  ViewChangeMsg msg;
  msg.new_view = new_view;
  msg.stable_seq = SeqNum(stable_seq_);
  msg.stable_digest = stable_.digest;
  msg.replica = id();
  const auto add_if_prepared = [&](const LogEntry& entry) {
    if (!entry.prepared) return;
    PreparedProof proof;
    proof.view = entry.prepared->view;
    proof.seq = SeqNum(entry.seq);
    proof.req_digest = entry.prepared->req_digest;
    proof.request = entry.prepared->request;
    msg.prepared.push_back(std::move(proof));
  };
  // In sequence order. An entry logged past the window is never prepared:
  // handle_prepare drops its PREPAREs, and this replica's own vote is at
  // most one of the 2f it needs.
  for (std::uint64_t seq = stable_seq_ + 1; in_window(seq); ++seq) {
    if (const LogEntry* entry = find_entry(seq)) add_if_prepared(*entry);
  }
  // Signed in place; this replica's own entry keeps the signed body as a
  // view of the frame it sends.
  Frame frame(id(), msg, Frame::trailer_bound(0, true));
  const std::size_t body_size = frame.body().size();
  SignedViewChange svc;
  svc.signature = signing_key_.sign(frame.body());
  const BufView wire = frame.seal_signature(svc.signature);
  svc.msg = std::move(msg);
  svc.body = wire.slice(kEnvelopeBodyAt, body_size);
  view_change_msgs_[new_view][id()] = std::move(svc);
  if (!byz_.silent) {
    last_view_change_envelope_ = wire;
    multicast_to(config_.group, wire);
  }
  metrics_.view_changes_sent->inc();
  tel_->trace(telemetry::TraceKind::kBftViewChange, id(), 0, new_view.value);

  // If the new view stalls too, move on to the next one — with exponential
  // backoff (PBFT: "the timeout for the new view is twice the previous
  // one"), so a replica whose peers are simply absent does not flood the
  // network with view changes.
  view_change_attempts_ = std::min(view_change_attempts_ + 1, 16);
  request_timer_armed_ = true;
  request_timer_ = set_timer(
      config_.view_change_timeout_ns * (std::int64_t{1} << view_change_attempts_),
      [this] {
        request_timer_armed_ = false;
        on_request_timeout();
      });

  if (config_.primary_for(new_view) == id()) {
    process_view_change_quorum(new_view);
  }
}

void Replica::handle_view_change(const Envelope& env) {
  if (config_.rank_of(env.sender) < 0) return;
  if (!env.signature) return;  // view changes must be signed
  Result<ViewChangeMsg> decoded = ViewChangeMsg::decode(env.body);
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  const ViewChangeMsg msg = std::move(decoded).take();
  if (msg.replica != env.sender) return;
  if (counters::before_eq(msg.new_view.value, view_.value) && !in_view_change_) return;

  SignedViewChange svc;
  svc.msg = msg;
  svc.body = env.body;
  svc.signature = *env.signature;
  view_change_msgs_[msg.new_view][env.sender] = svc;
  // Hygiene: a peer probing ever-higher views must not grow this map without
  // bound; anything at or below our current view is dead, and we only ever
  // act on the lowest joinable future view, so keep a bounded horizon.
  view_change_msgs_.erase(view_change_msgs_.begin(),
                          view_change_msgs_.lower_bound(ViewId(view_.value)));
  while (view_change_msgs_.size() > 8) {
    view_change_msgs_.erase(std::prev(view_change_msgs_.end()));
  }

  // Join rule: f+1 replicas ahead of us means our timer is just slow.
  bool joined = false;
  for (const auto& [target_view, msgs] : view_change_msgs_) {
    if (counters::before_eq(target_view.value, view_.value)) continue;
    if (static_cast<int>(msgs.size()) >= config_.f + 1 &&
        counters::after(target_view.value, highest_view_change_sent_.value)) {
      start_view_change(target_view);
      joined = true;
      break;
    }
  }
  if (config_.primary_for(msg.new_view) == id()) {
    process_view_change_quorum(msg.new_view);
  }
  // Laggard help: the sender is alone in a future view while we are not
  // joining — either it missed messages we will never retransmit through
  // the normal case, or its timeout was spurious and it is stuck. Offer it
  // our state (f+1 such offers certify it / prove the group is live).
  if (!joined && !in_view_change_ && counters::after(msg.new_view.value, view_.value) &&
      counters::after_eq(last_executed_, msg.stable_seq.value)) {
    help_laggard(env.sender);
  }
}

std::vector<PrePrepareMsg> Replica::compute_new_view_pre_prepares(
    ViewId view, const std::vector<SignedViewChange>& vcs, std::uint64_t* min_s_out,
    std::uint64_t* max_s_out) const {
  // min_s: the highest stable point vouched for by f+1 view changes (at
  // least one of which is from a correct replica). Taking the plain maximum
  // would let one Byzantine replica inflate its stable_seq and cause
  // committed requests below it to be silently skipped from re-proposal.
  std::vector<std::uint64_t> stable_claims;
  std::uint64_t max_s = 0;
  for (const SignedViewChange& svc : vcs) {
    stable_claims.push_back(svc.msg.stable_seq.value);
    for (const PreparedProof& proof : svc.msg.prepared) {
      max_s = std::max(max_s, proof.seq.value);
    }
  }
  std::sort(stable_claims.begin(), stable_claims.end(), std::greater<>());
  const std::size_t pick = std::min(stable_claims.size() - 1,
                                    static_cast<std::size_t>(config_.f));
  std::uint64_t min_s = stable_claims[pick];
  max_s = std::max(max_s, min_s);

  std::vector<PrePrepareMsg> out;
  for (std::uint64_t seq = min_s + 1; seq <= max_s; ++seq) {
    // Pick the prepared proof from the highest view for this seq.
    const PreparedProof* best = nullptr;
    for (const SignedViewChange& svc : vcs) {
      for (const PreparedProof& proof : svc.msg.prepared) {
        if (proof.seq.value != seq) continue;
        if (best == nullptr || counters::after(proof.view.value, best->view.value)) best = &proof;
      }
    }
    PrePrepareMsg pp;
    pp.view = view;
    pp.seq = SeqNum(seq);
    if (best != nullptr) {
      pp.req_digest = best->req_digest;
      pp.request = best->request;
    }  // else: null request
    out.push_back(std::move(pp));
  }
  *min_s_out = min_s;
  *max_s_out = max_s;
  return out;
}

void Replica::process_view_change_quorum(ViewId new_view) {
  if (config_.primary_for(new_view) != id()) return;
  if (!in_view_change_ || view_ != new_view) return;
  const auto it = view_change_msgs_.find(new_view);
  if (it == view_change_msgs_.end()) return;
  if (static_cast<int>(it->second.size()) < config_.quorum()) return;

  NewViewMsg msg;
  msg.view = new_view;
  msg.primary = id();
  for (const auto& [replica, svc] : it->second) {
    msg.view_changes.push_back(svc);
    if (static_cast<int>(msg.view_changes.size()) == config_.quorum()) break;
  }
  std::uint64_t min_s = 0;
  std::uint64_t max_s = 0;
  msg.pre_prepares =
      compute_new_view_pre_prepares(new_view, msg.view_changes, &min_s, &max_s);

  if (!byz_.silent) {
    Frame frame(id(), msg, Frame::trailer_bound(0, true));
    multicast_to(config_.group, frame.seal_signature(signing_key_.sign(frame.body())));
  }
  metrics_.new_views_sent->inc();
  tel_->trace(telemetry::TraceKind::kBftNewView, id(), 0, new_view.value);
  adopt_new_view(msg);
}

void Replica::handle_new_view(const Envelope& env) {
  if (!env.signature) return;
  Result<NewViewMsg> decoded = NewViewMsg::decode(env.body);
  if (!decoded.is_ok()) {
    metrics_.malformed->inc();
    return;
  }
  const NewViewMsg msg = std::move(decoded).take();
  if (msg.primary != env.sender) return;
  if (config_.primary_for(msg.view) != env.sender) return;
  if (counters::before(msg.view.value, view_.value)) return;
  if (msg.view == view_ && !in_view_change_) return;

  // Validate the view-change certificate.
  if (static_cast<int>(msg.view_changes.size()) < config_.quorum()) return;
  std::set<NodeId> senders;
  for (const SignedViewChange& svc : msg.view_changes) {
    if (svc.msg.new_view != msg.view) return;
    if (config_.rank_of(svc.msg.replica) < 0) return;
    if (!senders.insert(svc.msg.replica).second) return;  // duplicates
    // Over the bytes the primary relayed, which its sender signed: a
    // re-encoding would differ wherever the decoder skipped a pad.
    if (!keystore_->verify(svc.msg.replica, svc.body, svc.signature).is_ok()) {
      metrics_.auth_failures->inc();
      return;
    }
  }
  // Recompute O and insist the primary computed it honestly.
  std::uint64_t min_s = 0;
  std::uint64_t max_s = 0;
  const std::vector<PrePrepareMsg> expected =
      compute_new_view_pre_prepares(msg.view, msg.view_changes, &min_s, &max_s);
  if (expected != msg.pre_prepares) {
    ITDOS_WARN(kLog) << id().to_string() << " rejects NEW-VIEW with inconsistent O";
    return;
  }
  adopt_new_view(msg);
}

void Replica::adopt_new_view(const NewViewMsg& msg) {
  std::uint64_t min_s = 0;
  std::uint64_t max_s = 0;
  const std::vector<PrePrepareMsg> pre_prepares =
      compute_new_view_pre_prepares(msg.view, msg.view_changes, &min_s, &max_s);

  view_ = msg.view;
  in_view_change_ = false;
  view_change_attempts_ = 0;
  enter_view(view_);
  next_seq_ = max_s;
  disarm_request_timer();

  // The proposal/forwarding dedup horizons are VIEW-scoped: a request the
  // old primary proposed but that never prepared is not in O, and without
  // this reset its retransmissions would be ignored forever (the old
  // proposed/forwarded marks would blackhole it).
  for (auto& [client, record] : clients_) {
    record.proposed = record.executed;
    record.forwarded = record.executed;
  }

  // If the certificate's stable point is ahead of our execution we must
  // fetch state. A single view-change's digest claim is not a certificate,
  // so ask the whole group and install on an f+1-matching weak certificate
  // (handled in handle_state_response).
  if (min_s > last_executed_) {
    StateRequestMsg request;
    request.seq = SeqNum(min_s);
    request.requester = id();
    multicast_authenticated(request);
  }

  for (const PrePrepareMsg& pp : pre_prepares) {
    const std::uint64_t seq = pp.seq.value;
    if (counters::before_eq(seq, last_executed_)) continue;  // already executed (committed earlier)
    // Requests the new view re-proposes ARE in flight: restore their dedup
    // marks so client retransmissions are not double-assigned. A batch is
    // restored entry-by-entry — but proposed as the original whole. (A null
    // request's empty bytes decode to no batch.)
    std::uint64_t trace = 0;
    std::vector<Digest> payloads;  // taken on the certificate: hashed here
    if (Result<batch::BatchMsg> carried_batch = batch::BatchMsg::decode(pp.request);
        carried_batch.is_ok()) {
      for (const batch::BatchEntry& entry_bytes : carried_batch.value().entries) {
        payloads.push_back(payload_digest(entry_bytes.request));
        Result<RequestMsg> carried = RequestMsg::decode(entry_bytes.request);
        if (!carried.is_ok()) continue;
        if (trace == 0) trace = app_->trace_of(carried.value().payload);
        ClientRecord& record = clients_[carried.value().client];
        // Re-proposed entries are accepted on the certificate, not on their
        // client tags, so apply the same fabricated-timestamp guard as
        // handle_pre_prepare: implausible marks would prune the bounded
        // windows over live timestamps.
        if (!plausible_timestamp(record.executed, carried.value().timestamp)) continue;
        record.proposed.insert(carried.value().timestamp);
        record.forwarded.insert(carried.value().timestamp);
      }
    }
    LogEntry& entry = entry_at(seq);
    // Old-view prepares/commits must not count toward the new view.
    entry.pre_prepare = pp;
    entry.payload_digests = std::move(payloads);
    for (RankVotes& votes : entry.votes) votes = RankVotes{};
    entry.votes_view = view_;
    entry.committed = false;
    entry.trace = trace;
    entry.first_seen = now();
    if (counters::after(seq, top_logged_)) top_logged_ = seq;

    if (config_.primary_for(view_) != id()) {
      PrepareMsg prepare;
      prepare.view = view_;
      prepare.seq = pp.seq;
      prepare.req_digest = pp.req_digest;
      prepare.replica = id();
      votes_of(entry, self_rank_).prepare = pp.req_digest;
      multicast_authenticated(prepare);
      metrics_.prepares_sent->inc();
    }
    arm_request_timer();
  }

  // Forget view-change state for this and older views.
  for (auto it = view_change_msgs_.begin(); it != view_change_msgs_.end();) {
    if (counters::before_eq(it->first.value, view_.value)) {
      it = view_change_msgs_.erase(it);
    } else {
      ++it;
    }
  }
  // This view's messages that overtook its NEW-VIEW (proposals first, then
  // PREPAREs, then COMMITs), then every request that survived the old
  // view.
  for (const auto& [key, buffered] : std::exchange(next_view_msgs_, {})) {
    switch (buffered.type) {
      case MsgType::kPrePrepare: handle_pre_prepare(buffered); break;
      case MsgType::kPrepare: handle_prepare(buffered); break;
      case MsgType::kCommit: handle_commit(buffered); break;
      case MsgType::kRequest:
      case MsgType::kReply:
      case MsgType::kCheckpoint:
      case MsgType::kViewChange:
      case MsgType::kNewView:
      case MsgType::kStateRequest:
      case MsgType::kStateResponse:
        break;  // never buffered
    }
  }
  hand_over_held();
  pump_former();
  try_execute();
}

void Replica::buffer_for_next_view(const Envelope& env, std::uint64_t seq) {
  if (!in_window(seq)) return;
  // The key bounds what any one sender can park; the cap also covers keys
  // a window that moved during the view change has left behind.
  const auto cap = static_cast<std::size_t>(config_.watermark_window()) *
                   (1 + 2 * config_.replicas.size());
  if (next_view_msgs_.size() >= cap) return;
  next_view_msgs_.try_emplace(NextViewKey{env.type, seq, env.sender}, env);
}

void Replica::hand_over_former() {
  for (const batch::PendingEntry& entry : former_.take_all()) {
    Result<RequestMsg> request = RequestMsg::decode(entry.encoded);
    if (!request.is_ok()) continue;
    ClientRecord& record = clients_[request.value().client];
    if (record.executed.contains(request.value().timestamp)) continue;
    // The REQUEST as its client sent it (handle_request checked the client
    // is the sender): the same bytes, rebuilt from the parked entry.
    Frame frame(MsgType::kRequest, request.value().client, entry.encoded,
                Frame::trailer_bound(entry.auth.size() / AuthVector::kEntrySize, false));
    hold_request(record, request.value().timestamp, frame.seal_entries(entry.auth));
  }
}

void Replica::hand_over_held() {
  // A primary that skipped the view change (it adopted a later NEW-VIEW
  // directly) still has its parked entries.
  hand_over_former();
  const NodeId primary = config_.primary_for(view_);
  bool handed = false;
  // In (client, timestamp) order. A request O re-proposed, or that a
  // replayed PRE-PREPARE already carries, is in this view's pipeline.
  for (auto& [client, record] : clients_) {
    for (const auto& [ts, envelope] : record.held) {
      if (record.executed.contains(ts) || record.proposed.contains(ts)) continue;
      if (primary == id()) {
        // Held envelopes were verified on arrival; only the body is parked.
        Result<Envelope> env = Envelope::decode(envelope);
        if (!env.is_ok()) continue;
        Result<RequestMsg> request = RequestMsg::decode(env.value().body);
        if (!request.is_ok()) continue;
        record.proposed.insert(ts);
        former_.enqueue(env.value().body, app_->classify(request.value().payload),
                        app_->trace_of(request.value().payload), now(),
                        env.value().auth.wire(), payload_digest(env.value().body));
        handed = true;
      } else if (!record.forwarded.contains(ts)) {
        record.forwarded.insert(ts);
        if (!byz_.silent) send_to(primary, envelope);
        handed = true;
      }
    }
  }
  if (handed) arm_request_timer();  // hold the new primary to ordering them
}

}  // namespace itdos::bft
