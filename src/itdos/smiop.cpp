#include "itdos/smiop.hpp"

#include <algorithm>

#include "common/counters.hpp"
#include "common/log.hpp"
#include "crypto/sha256.hpp"

namespace itdos::core {

namespace {
constexpr std::string_view kLog = "itdos.smiop";

/// The ballot value for a GIOP reply: status + result + exception detail.
std::optional<cdr::Value> reply_ballot_value(ByteView plain_giop, RequestId rid) {
  Result<cdr::GiopMessage> parsed = cdr::parse_giop(plain_giop);
  if (!parsed.is_ok()) return std::nullopt;
  auto* reply = std::get_if<cdr::ReplyMessage>(&parsed.value());
  if (reply == nullptr || reply->request_id != rid) return std::nullopt;
  // The fields move out of the parsed reply; an initializer list would
  // copy each of them, the result once more.
  std::vector<cdr::Field> fields;
  fields.reserve(3);
  fields.emplace_back("status", cdr::Value::octet(static_cast<std::uint8_t>(reply->status)));
  fields.emplace_back("result", std::move(reply->result));
  fields.emplace_back("exception", cdr::Value::string(std::move(reply->exception_detail)));
  return cdr::Value::structure(std::move(fields));
}

}  // namespace

// ---------------------------------------------------------------------------
// ConnTable
// ---------------------------------------------------------------------------

void ConnTable::install(const ConnRecord& record, const crypto::SymmetricKey& key) {
  Entry& entry = entries_[record.conn.value];
  entry.keys.insert_or_assign(record.epoch.value, key);
  if (counters::after_eq(record.epoch.value, entry.record.epoch.value)) entry.record = record;
  // Epoch hygiene: discard keys older than the retained window so frames
  // sealed before an expulsion long past cannot be replayed indefinitely.
  while (entry.keys.size() > kMaxRetainedEpochs + 1) {
    entry.keys.erase(entry.keys.begin());
  }
  for (const Listener& listener : listeners_) listener(entry);
}

const ConnTable::Entry* ConnTable::find(ConnectionId conn) const {
  const auto it = entries_.find(conn.value);
  return it == entries_.end() ? nullptr : &it->second;
}

const crypto::SymmetricKey* ConnTable::key_for(ConnectionId conn,
                                               KeyEpoch epoch) const {
  const Entry* entry = find(conn);
  if (entry == nullptr) return nullptr;
  const auto it = entry->keys.find(epoch.value);
  return it == entry->keys.end() ? nullptr : &it->second;
}

SealAad seal_aad(ConnectionId conn, RequestId rid, KeyEpoch epoch, bool is_reply) {
  SealAad aad;
  cdr::detail::store_le64(aad.bytes.data(), conn.value);
  cdr::detail::store_le64(aad.bytes.data() + 8, rid.value);
  cdr::detail::store_le64(aad.bytes.data() + 16, epoch.value);
  aad.bytes[24] = is_reply ? 1 : 0;
  return aad;
}

// ---------------------------------------------------------------------------
// Protocol / Connection adapters
// ---------------------------------------------------------------------------

class SmiopParty::Connection : public orb::ClientConnection {
 public:
  Connection(SmiopParty& party, std::shared_ptr<ConnState> state)
      : party_(party), state_(std::move(state)) {}

  ConnectionId id() const override { return state_->conn; }

  void send_request(cdr::RequestMessage request, Completion done) override {
    party_.send_on(*state_, std::move(request), std::move(done));
  }

 private:
  SmiopParty& party_;
  std::shared_ptr<ConnState> state_;
};

class SmiopParty::Protocol : public orb::PluggableProtocol {
 public:
  explicit Protocol(SmiopParty& party) : party_(party) {}
  std::string_view name() const override { return "smiop"; }
  DomainId resolve(const orb::ObjectRef& ref) const override {
    // Location transparency: routed refs (domain 0) resolve to the owner of
    // their key's shard range. The directory's table is identical at every
    // party, so replicated callers resolve identically (§3.6 voting needs
    // their copies to agree on the target).
    return party_.directory_->resolve_target(ref.domain, ref.key);
  }
  void connect(const orb::ObjectRef& ref, ConnectCompletion done) override {
    party_.connect_to(ref, std::move(done));
  }

 private:
  SmiopParty& party_;
};

// ---------------------------------------------------------------------------
// SmiopParty
// ---------------------------------------------------------------------------

SmiopParty::SmiopParty(net::Network& net,
                       std::shared_ptr<const SystemDirectory> directory,
                       PartyConfig config, const bft::SessionKeys& keys,
                       std::shared_ptr<const crypto::Keystore> keystore,
                       std::shared_ptr<NodeAllocator> allocator)
    : net_(net),
      directory_(std::move(directory)),
      config_(config),
      keys_(keys),
      keystore_(std::move(keystore)),
      allocator_(std::move(allocator)),
      agent_(directory_, keys_, config.smiop_node),
      tel_(&net.sim().telemetry()) {
  auto& reg = tel_->metrics();
  const auto counter = [&](std::string_view name) {
    return &reg.counter(telemetry::metric_name("smiop", config_.smiop_node, name));
  };
  metrics_.opens_sent = counter("opens_sent");
  metrics_.requests_sent = counter("requests_sent");
  metrics_.replies_received = counter("replies_received");
  metrics_.replies_rejected = counter("replies_rejected");
  metrics_.votes_decided = counter("votes_decided");
  metrics_.votes_timed_out = counter("votes_timed_out");
  metrics_.discarded = counter("discarded");
  metrics_.faults_detected = counter("faults_detected");
  metrics_.change_requests_sent = counter("change_requests_sent");
  metrics_.overloads_observed = counter("overloads_observed");
  metrics_.request_latency_ns = &reg.histogram("smiop.request_latency_ns");
  metrics_.connect_latency_ns = &reg.histogram("smiop.connect_latency_ns");
  gm_client_ = std::make_unique<bft::Client>(
      net_, config_.gm_client_node,
      directory_->gm().make_bft_config(directory_->timing()), keys_);
  agent_.set_key_ready([this](const ConnRecord& record,
                              const crypto::SymmetricKey& key,
                              const std::vector<int>& misbehaving) {
    if (!misbehaving.empty()) {
      ITDOS_WARN(kLog) << "GM elements sent bad shares for conn "
                       << record.conn.to_string();
    }
    if (const ConnTable::Entry* prev = table_.find(record.conn); prev == nullptr) {
      tel_->trace(telemetry::TraceKind::kSmiopConnectOpen, config_.smiop_node, 0,
                  record.conn.value, record.epoch.value);
    } else if (counters::after(record.epoch.value, prev->record.epoch.value)) {
      tel_->trace(telemetry::TraceKind::kSmiopEpochAdvance, config_.smiop_node, 0,
                  record.conn.value, record.epoch.value);
      // Span event: this party's traffic on `conn` now seals under the new
      // epoch (fault forensics segment per-connection timelines on these).
      tel_->trace(telemetry::TraceKind::kEpochRekey, config_.smiop_node, 0,
                  record.conn.value, record.epoch.value);
    }
    table_.install(record, key);
    // Wake any connect waiting on this key.
    const auto it = pending_connects_.find(record.conn.value);
    if (it != pending_connects_.end()) {
      metrics_.connect_latency_ns->record(net_.sim().now() - it->second.started);
      auto waiting = std::move(it->second.waiting);
      net_.sim().cancel(it->second.timer);
      const DomainId target = it->second.target;
      pending_connects_.erase(it);
      for (auto& done : waiting) {
        done(std::shared_ptr<orb::ClientConnection>(std::make_shared<Connection>(
            *this, conns_.at(record.conn.value))));
      }
      (void)target;
    }
  });
}

// Recovery can destroy a party (watchdog abort) while its self-scheduled
// timers are still pending; they go with it.
SmiopParty::~SmiopParty() { net_.sim().cancel_owned(this); }

std::unique_ptr<orb::PluggableProtocol> SmiopParty::make_protocol() {
  return std::make_unique<Protocol>(*this);
}

void SmiopParty::set_vote_audit(ConnectionVoter::DecisionAudit audit) {
  vote_audit_ = std::move(audit);
  for (auto& [conn, state] : conns_) {
    if (state->voter) state->voter->set_audit(vote_audit_);
  }
}

VotePolicy SmiopParty::policy_for(const DomainInfo& target) const {
  return config_.policy_override.value_or(target.vote_policy);
}

bft::Client& SmiopParty::target_client(DomainId domain) {
  auto it = target_clients_.find(domain);
  if (it == target_clients_.end()) {
    const DomainInfo* info = directory_->find_domain(domain);
    it = target_clients_
             .emplace(domain, std::make_unique<bft::Client>(
                                  net_, allocator_->next(),
                                  info->make_bft_config(directory_->timing()), keys_))
             .first;
  }
  return *it->second;
}

std::vector<NodeId> SmiopParty::transport_nodes() const {
  std::vector<NodeId> nodes = {config_.smiop_node, config_.gm_client_node};
  for (const auto& [domain, client] : target_clients_) {
    nodes.push_back(client->id());
  }
  return nodes;
}

void SmiopParty::connect_to(const orb::ObjectRef& ref,
                            orb::PluggableProtocol::ConnectCompletion done) {
  if (shard::is_routed(ref.domain)) {
    // The Orb resolves routed refs before connecting; reaching here means
    // the key fell outside every registered shard range (or no shard map
    // exists in this deployment).
    done(error(Errc::kNotFound,
               "unroutable object key " + ref.key.to_string() +
                   " (no shard range owns it)"));
    return;
  }
  const DomainInfo* target = directory_->find_domain(ref.domain);
  if (target == nullptr) {
    done(error(Errc::kNotFound, "unknown target domain " + ref.domain.to_string()));
    return;
  }
  OpenRequestMsg open;
  open.client_node = config_.smiop_node;
  open.client_domain = config_.my_domain;
  open.target = ref.domain;
  metrics_.opens_sent->inc();
  tel_->trace(telemetry::TraceKind::kSmiopConnectStart, config_.smiop_node, 0,
              ref.domain.value);
  const DomainId target_id = ref.domain;
  const SimTime connect_start = net_.sim().now();
  gm_client_->invoke(
      encode_gm_command(GmCommand(open)),
      [this, target_id, connect_start, done = std::move(done)](Result<Bytes> r) mutable {
        if (!r.is_ok()) {
          done(r.status());
          return;
        }
        Result<GmCommandResult> result = GmCommandResult::decode(r.value());
        if (!result.is_ok()) {
          done(result.status());
          return;
        }
        if (!result.value().accepted) {
          done(error(Errc::kPermissionDenied,
                     "GM rejected open_request: " + result.value().detail));
          return;
        }
        const ConnectionId conn = result.value().conn;
        // Create the connection state now; the key may already be here (the
        // GM's shares race the command ACK) or may still be in flight.
        const DomainInfo* target = directory_->find_domain(target_id);
        auto state = std::make_shared<ConnState>();
        state->conn = conn;
        state->target = target_id;
        state->target_f = target->f;
        state->voter =
            std::make_unique<ConnectionVoter>(target->f, policy_for(*target));
        state->voter->set_telemetry(tel_, config_.smiop_node, conn);
        if (vote_audit_) state->voter->set_audit(vote_audit_);
        conns_[conn.value] = state;

        if (table_.find(conn) != nullptr) {
          metrics_.connect_latency_ns->record(net_.sim().now() - connect_start);
          done(std::shared_ptr<orb::ClientConnection>(
              std::make_shared<Connection>(*this, state)));
          return;
        }
        PendingConnect& pending = pending_connects_[conn.value];
        if (pending.waiting.empty()) pending.started = connect_start;
        pending.target = target_id;
        pending.waiting.push_back(std::move(done));
        pending.timer = net_.sim().schedule_after(
            directory_->timing().reply_vote_timeout_ns * 4,
            [this, conn] {
              const auto it = pending_connects_.find(conn.value);
              if (it == pending_connects_.end()) return;
              auto waiting = std::move(it->second.waiting);
              pending_connects_.erase(it);
              for (auto& waiter : waiting) {
                waiter(error(Errc::kUnavailable,
                             "timed out waiting for communication key shares"));
              }
            },
            this);
      });
}

void SmiopParty::send_on(ConnState& state, cdr::RequestMessage request,
                         orb::ClientConnection::Completion done) {
  const ConnTable::Entry* entry = table_.find(state.conn);
  if (entry == nullptr) {
    done(error(Errc::kFailedPrecondition, "connection has no communication key"));
    return;
  }
  const KeyEpoch epoch = entry->record.epoch;
  const crypto::SymmetricKey& key = entry->keys.at(epoch.value);
  const RequestId rid = request.request_id;

  const Bytes plain = cdr::encode_giop(cdr::GiopMessage(std::move(request)),
                                       config_.byte_order);
  const SealAad aad = seal_aad(state.conn, rid, epoch, /*is_reply=*/false);
  OrderedMsg ordered;
  ordered.conn = state.conn;
  ordered.rid = rid;
  ordered.origin = config_.smiop_node;
  ordered.origin_domain = config_.my_domain;
  ordered.epoch = epoch;
  ordered.sealed_giop =
      crypto::seal(key, crypto::make_nonce(config_.smiop_node.value, rid.value), aad,
                   plain);
  metrics_.requests_sent->inc();
  // §4 large messages: one ordered entry whatever the size. The seal spans
  // the whole payload, and agreement orders it in one round.
  tel_->trace(telemetry::TraceKind::kSmiopRequestSent, config_.smiop_node,
              telemetry::trace_id(state.conn, rid), ordered.sealed_giop.size(), 1);

  // One outstanding request per connection (§3.6): the Orb guarantees this;
  // opening the new round garbage-collects the previous one's voter state.
  state.voter->expect(rid);
  RequestRound round;
  round.rid = rid;
  round.done = std::move(done);
  round.sent_at = net_.sim().now();
  round.timer_armed = true;
  round.timer = net_.sim().schedule_after(
      directory_->timing().reply_vote_timeout_ns,
      [this, conn = state.conn] {
        const auto it = conns_.find(conn.value);
        if (it == conns_.end() || !it->second->round) return;
        if (!it->second->round->done) return;
        metrics_.votes_timed_out->inc();
        complete_round(*it->second,
                       error(Errc::kUnavailable,
                             "reply vote did not complete (too few replies)"));
      },
      this);
  state.round = std::move(round);

  bft::Client& transport = target_client(state.target);
  const BufView frame = ordered.encode();
  // Compromised-client hooks: a replayed stale frame carries an already
  // executed rid, a duplicate carries the current one twice — every
  // element's last_rid_ check must discard both identically.
  if (replay_stale_frames_ && !last_sealed_frame_.empty()) {
    target_client(last_frame_target_).invoke(last_sealed_frame_, [](Result<Bytes>) {});
  }
  transport.invoke(frame, [](Result<Bytes>) {
    // The BFT-level reply is the static ordering ACK (§3.1); the real
    // CORBA reply arrives as DirectReply messages and is voted there.
  });
  if (duplicate_submits_) {
    transport.invoke(frame, [](Result<Bytes>) {});
  }
  if (replay_stale_frames_) {
    last_sealed_frame_ = frame;
    last_frame_target_ = state.target;
  }
}

void SmiopParty::handle_smiop_packet(const BufView& payload) {
  const Result<SmiopType> type = smiop_type(payload);
  if (!type.is_ok()) return;
  if (type.value() == SmiopType::kKeyShare) {
    Result<KeyShareMsg> msg = KeyShareMsg::decode(payload);
    if (!msg.is_ok()) return;
    // A rejected share (bad MAC, stale epoch) is an expected hostile event;
    // the agent already counted it and quorum math absorbs the loss.
    (void)agent_.handle_share(msg.value());
    return;
  }
  Result<DirectReplyMsg> msg = DirectReplyMsg::decode(payload);
  if (!msg.is_ok()) return;
  handle_direct_reply(msg.value());
}

void SmiopParty::handle_direct_reply(const DirectReplyMsg& msg) {
  metrics_.replies_received->inc();
  const auto it = conns_.find(msg.conn.value);
  if (it == conns_.end()) {
    metrics_.discarded->inc();
    return;
  }
  ConnState& state = *it->second;
  // A reply for a request older than the one being voted on is a late
  // reply the voter discards unused and unpenalized (§3.6), so it is handed
  // over before any crypto: no key lookup, open, digest or signature check.
  if (counters::before(msg.rid.value, state.voter->expected().value)) {
    (void)state.voter->submit(msg.rid, Ballot{});  // counted as discarded
    return;
  }
  const crypto::SymmetricKey* key = table_.key_for(msg.conn, msg.epoch);
  if (key == nullptr) {
    metrics_.replies_rejected->inc();
    return;
  }
  // The replying element must be a member of the target domain.
  const DomainInfo* target = directory_->find_domain(state.target);
  if (target == nullptr || target->rank_of_smiop(msg.element) < 0) {
    metrics_.replies_rejected->inc();
    return;
  }
  const SealAad aad = seal_aad(msg.conn, msg.rid, msg.epoch, /*is_reply=*/true);
  Result<Bytes> plain = crypto::open(*key, aad, msg.sealed_giop);
  if (!plain.is_ok()) {
    metrics_.replies_rejected->inc();
    return;
  }
  // Verify the element's signature over the plaintext digest — this is what
  // later makes the reply usable as change_request proof (§3.6).
  const crypto::Digest digest = crypto::sha256(ByteView(plain.value()));
  const DirectReplyMsg::SignedRegion region =
      DirectReplyMsg::signed_region(msg.conn, msg.rid, msg.element, msg.epoch, digest);
  if (!keystore_->verify(msg.element, region, msg.plain_signature).is_ok()) {
    metrics_.replies_rejected->inc();
    return;
  }

  Ballot ballot;
  ballot.source = msg.element;
  ballot.value = reply_ballot_value(plain.value(), msg.rid);
  ballot.raw = std::move(plain).take();

  if (state.round && msg.rid == state.round->rid) {
    ProofEntry entry;
    entry.element = msg.element;
    entry.epoch = msg.epoch;
    entry.plain_giop = ballot.raw;  // shares the ballot's buffer
    entry.signature = msg.plain_signature;
    // One proof entry per element per round.
    const bool seen = std::any_of(
        state.round->proof.begin(), state.round->proof.end(),
        [&](const ProofEntry& p) { return p.element == msg.element; });
    if (!seen) state.round->proof.push_back(std::move(entry));
  }

  const DecisionRef decision = state.voter->submit(msg.rid, std::move(ballot));
  if (!state.round) return;
  if (decision) {
    metrics_.votes_decided->inc();
    if (state.round->done) {
      const std::int64_t latency = net_.sim().now() - state.round->sent_at;
      metrics_.request_latency_ns->record(latency);
      tel_->trace(telemetry::TraceKind::kSmiopReplyDecided, config_.smiop_node,
                  telemetry::trace_id(state.conn, msg.rid),
                  static_cast<std::uint64_t>(latency));
    }
    Result<cdr::GiopMessage> parsed = cdr::parse_giop(decision->winner.raw);
    if (parsed.is_ok() &&
        std::holds_alternative<cdr::ReplyMessage>(parsed.value())) {
      complete_round(state,
                     std::get<cdr::ReplyMessage>(std::move(parsed).take()));
    } else {
      complete_round(state, error(Errc::kMalformedMessage,
                                  "voted winner is not a parseable GIOP reply"));
    }
  }
  maybe_report_dissenters(state);
}

void SmiopParty::complete_round(ConnState& state, Result<cdr::ReplyMessage> result) {
  if (!state.round || !state.round->done) return;
  if (result.is_ok() && result.value().status == cdr::ReplyStatus::kSystemException &&
      result.value().exception_detail.starts_with("ITDOS-OVERLOAD")) {
    // Admission control shed the request at every correct element: the f+1
    // matching exception ballots make overload an explicit outcome (§6f).
    metrics_.overloads_observed->inc();
  }
  if (state.round->timer_armed) {
    net_.sim().cancel(state.round->timer);
    state.round->timer_armed = false;
  }
  auto done = std::move(state.round->done);
  state.round->done = nullptr;
  done(std::move(result));
  // The round object itself stays until the next request: the voter keeps
  // collecting the remaining replies for fault detection (§3.6).
}

void SmiopParty::maybe_report_dissenters(ConnState& state) {
  if (!config_.auto_report || !state.round) return;
  const auto& vote = state.voter->outstanding();
  if (!vote || !vote->decided()) return;
  const std::vector<NodeId> dissenters = vote->dissenters();
  if (dissenters.empty()) return;
  // Singleton reporters need a 2f+1-strong proof for the GM's own vote.
  const bool singleton = is_singleton_domain(config_.my_domain);
  if (singleton &&
      static_cast<int>(state.round->proof.size()) < 2 * state.target_f + 1) {
    return;  // keep collecting; a later reply may complete the proof
  }
  for (NodeId dissenter : dissenters) {
    if (state.round->reported.contains(dissenter)) continue;
    state.round->reported.insert(dissenter);
    metrics_.faults_detected->inc();
    tel_->trace(telemetry::TraceKind::kSmiopFault, config_.smiop_node,
                telemetry::trace_id(state.conn, state.round->rid), dissenter.value);
    ChangeRequestMsg change;
    change.reporter = config_.smiop_node;
    change.reporter_domain = config_.my_domain;
    change.accused_domain = state.target;
    change.accused_element = dissenter;
    change.conn = state.conn;
    change.rid = state.round->rid;
    if (singleton) change.proof = state.round->proof;
    send_change_request(std::move(change));
  }
}

void SmiopParty::send_change_request(ChangeRequestMsg msg) {
  metrics_.change_requests_sent->inc();
  ITDOS_INFO(kLog) << config_.smiop_node.to_string() << " files change_request against "
                   << msg.accused_element.to_string();
  gm_client_->invoke(encode_gm_command(GmCommand(std::move(msg))),
                     [](Result<Bytes>) {});
}

void SmiopParty::request_resend(ConnectionId conn,
                                std::function<void(GmCommandResult)> done) {
  ResendSharesMsg resend;
  resend.conn = conn;
  resend.requester = config_.smiop_node;
  gm_client_->invoke(encode_gm_command(GmCommand(resend)),
                     [done = std::move(done)](Result<Bytes> r) {
                       if (!done) return;
                       if (!r.is_ok()) {
                         done(GmCommandResult{false, ConnectionId(0), KeyEpoch(0),
                                              r.status().to_string()});
                         return;
                       }
                       Result<GmCommandResult> result =
                           GmCommandResult::decode(r.value());
                       if (result.is_ok()) {
                         done(result.value());
                       } else {
                         done(GmCommandResult{false, ConnectionId(0), KeyEpoch(0),
                                              result.status().to_string()});
                       }
                     });
}

}  // namespace itdos::core
