#include "itdos/domain_element.hpp"

#include "common/counters.hpp"
#include "common/log.hpp"
#include "crypto/sha256.hpp"

namespace itdos::core {

namespace {
constexpr std::string_view kLog = "itdos.element";

/// The ballot value for voting on requests from replicated callers: object
/// key + operation + arguments.
std::optional<cdr::Value> request_ballot_value(const cdr::RequestMessage& request) {
  return cdr::Value::structure(
      {cdr::Field("key", cdr::Value::int64(static_cast<std::int64_t>(request.object_key.value))),
       cdr::Field("op", cdr::Value::string(request.operation)),
       cdr::Field("iface", cdr::Value::string(request.interface_name)),
       cdr::Field("args", request.arguments)});
}
}  // namespace

/// SMIOP endpoint: receives key shares and direct replies for this element.
class DomainElement::Endpoint : public net::Process {
 public:
  Endpoint(net::Network& net, NodeId id, DomainElement& element)
      : Process(net, id), element_(element) {}

 protected:
  void on_packet(const net::Packet& packet) override {
    // State bundles are element-level (replacement protocol); everything
    // else belongs to the client-side party machinery.
    if (const Result<SmiopType> type = smiop_type(packet.payload);
        type.is_ok() && type.value() == SmiopType::kStateBundle) {
      if (const Result<StateBundleMsg> msg = StateBundleMsg::decode(packet.payload);
          msg.is_ok()) {
        element_.handle_state_bundle(msg.value());
      }
      return;
    }
    element_.party_->handle_smiop_packet(packet.payload);
  }

 private:
  DomainElement& element_;
};

/// ServerContext for upcalls: nested invocations go through this element's
/// own Orb (and thus its SMIOP client machinery), as §2 requires: "if one
/// state machine invokes operations on an object remotely ... then all
/// replicated state machines in that group must invoke operations on that
/// object remotely".
class DomainElement::UpcallContext : public orb::ServerContext {
 public:
  explicit UpcallContext(DomainElement& element) : element_(element) {}

  void set_connection(ConnectionId conn) { conn_ = conn; }
  ConnectionId connection() const override { return conn_; }

  void invoke_nested(const orb::ObjectRef& target, const std::string& operation,
                     cdr::Value arguments, InvokeCompletion done) override {
    element_.orb_->invoke(target, operation, std::move(arguments), std::move(done));
  }

 private:
  DomainElement& element_;
  ConnectionId conn_;
};

DomainElement::DomainElement(net::Network& net,
                             std::shared_ptr<const SystemDirectory> directory,
                             DomainId domain, int rank, const bft::SessionKeys& keys,
                             crypto::SigningKey bft_key, crypto::SigningKey smiop_key,
                             std::shared_ptr<const crypto::Keystore> keystore,
                             std::shared_ptr<NodeAllocator> allocator,
                             const ServantInstaller& install)
    : net_(net),
      directory_(std::move(directory)),
      domain_(domain),
      rank_(rank),
      info_(directory_->find_domain(domain)->elements.at(rank)),
      keys_(keys),
      smiop_key_(std::move(smiop_key)),
      keystore_(std::move(keystore)) {
  const DomainInfo& domain_info = *directory_->find_domain(domain_);
  auto& reg = net_.sim().telemetry().metrics();
  const auto counter = [&](std::string_view name) {
    return &reg.counter(telemetry::metric_name("element", info_.smiop_node, name));
  };
  metrics_.entries_consumed = counter("entries_consumed");
  metrics_.entries_discarded = counter("entries_discarded");
  metrics_.requests_executed = counter("requests_executed");
  metrics_.request_vote_copies = counter("request_vote_copies");
  metrics_.replies_sent = counter("replies_sent");
  metrics_.key_waits = counter("key_waits");
  metrics_.acks_sent = counter("acks_sent");
  metrics_.bundles_sent = counter("bundles_sent");
  metrics_.bundles_received = counter("bundles_received");
  metrics_.requests_shed = counter("requests_shed");

  PartyConfig party_config;
  party_config.smiop_node = info_.smiop_node;
  party_config.gm_client_node = info_.gm_client_node;
  party_config.my_domain = domain_;
  party_config.byte_order = info_.byte_order;
  party_ = std::make_unique<SmiopParty>(net_, directory_, party_config, keys_,
                                        keystore_, std::move(allocator));

  orb_ = std::make_unique<orb::Orb>(domain_, party_->make_protocol(), reg, info_.smiop_node);
  install(orb_->adapter(), rank_);

  endpoint_ = std::make_unique<Endpoint>(net_, info_.smiop_node, *this);
  context_ = std::make_unique<UpcallContext>(*this);

  QueueOptions queue_options;
  queue_options.n = domain_info.n();
  queue_options.f = domain_info.f;
  queue_options.members = domain_info.smiop_nodes();
  queue_options.orders_acks_for = [directory = directory_, domain = domain_](
                                      NodeId element, NodeId client) {
    return directory->find_domain(domain)->is_self_client(element, client);
  };
  queue_options.max_depth = directory_->timing().admission_max_depth;
  queue_options.telemetry = &net_.sim().telemetry();
  queue_options.self = info_.smiop_node;
  auto queue = std::make_unique<QueueStateMachine>(queue_options);
  queue_ = queue.get();
  queue_->set_delivery_hook([this] { schedule_consume(); });
  queue_->set_shed_hook([this](const BufView& entry) { handle_shed(entry); });
  queue_->set_laggard_hook([this](NodeId laggard) {
    if (laggard == info_.smiop_node) return;
    // Virtual synchrony (§3.1): an element that stops participating in
    // queue management must be expelled; each correct element files its own
    // change_request and the GM's f+1 quorum rule does the rest.
    ChangeRequestMsg change;
    change.reporter = info_.smiop_node;
    change.reporter_domain = domain_;
    change.accused_domain = domain_;
    change.accused_element = laggard;
    change.conn = ConnectionId(0);
    change.rid = RequestId(queue_->base_index());  // agreed discriminator
    party_->send_change_request(std::move(change));
  });

  replica_ = std::make_unique<bft::Replica>(
      net_, info_.bft_node, domain_info.make_bft_config(directory_->timing()), keys_,
      std::move(bft_key), keystore_, std::move(queue));

  self_client_ = std::make_unique<bft::Client>(
      net_, info_.self_client_node,
      domain_info.make_bft_config(directory_->timing()), keys_);

  // React to key installs: a stalled consumer may now proceed.
  party_->conn_table().subscribe([this](const ConnTable::Entry& entry) {
    if (waiting_key_ && entry.record.conn == *waiting_key_) {
      waiting_key_.reset();
      schedule_consume();
    }
  });
}

// Recovery can destroy an element (watchdog abort) while its self-scheduled
// events are still pending; they go with it.
DomainElement::~DomainElement() { net_.sim().cancel_owned(this); }

void DomainElement::schedule_consume() {
  if (consume_scheduled_) return;
  consume_scheduled_ = true;
  // The hand-off from the delivery actor to the ORB actor (the paper's
  // inter-thread queue handoff).
  net_.sim().schedule_after(
      micros(5),
      [this] {
        consume_scheduled_ = false;
        consume_step();
      },
      this);
}

void DomainElement::consume_step() {
  while (!executing_ && !waiting_key_ && queue_->has_next()) {
    const std::optional<BufView> entry = queue_->peek();
    if (!entry) return;
    if (!process_head(*entry)) return;  // stalled (key wait or executing)
  }
}

bool DomainElement::process_head(const BufView& entry) {
  // Replacement sync points are delivered in-order like requests: every
  // element snapshots at exactly this queue position (§4 future work).
  if (const Result<QueueEntryKind> kind = queue_entry_kind(entry);
      kind.is_ok() && kind.value() == QueueEntryKind::kSyncPoint) {
    queue_->pop();
    metrics_.entries_consumed->inc();
    ++consumed_since_ack_;
    maybe_send_ack();
    if (const Result<SyncPointMsg> sync = SyncPointMsg::decode(entry); sync.is_ok()) {
      if (sync.value().requester != info_.smiop_node) {
        send_state_bundle(sync.value().requester);
      }
    }
    return true;
  }

  Result<OrderedMsg> decoded = OrderedMsg::decode(entry);
  if (!decoded.is_ok()) {
    // Deterministic discard: every element sees the same bytes.
    queue_->pop();
    metrics_.entries_discarded->inc();
    return true;
  }
  const OrderedMsg msg = std::move(decoded).take();
  if (party_->conn_table().key_for(msg.conn, msg.epoch) == nullptr) {
    if (const ConnTable::Entry* known = party_->conn_table().find(msg.conn);
        known != nullptr &&
        counters::after(known->record.epoch.value, msg.epoch.value + kMaxRetainedEpochs)) {
      // Sealed under an epoch beyond the retained window: pruned everywhere
      // and no longer re-servable by the GM, so waiting can never succeed.
      // Every element prunes on the same installs, so the discard is
      // identical across the domain.
      queue_->pop();
      metrics_.entries_discarded->inc();
      return true;
    }
    // Unknown connection or epoch: the shares may still be in flight (a
    // resend re-serves every retained epoch). Ask the GM authoritatively; a
    // rejection is identical (BFT) for every element, so discarding on
    // rejection stays deterministic.
    begin_key_wait(msg.conn);
    return false;
  }
  queue_->pop();
  metrics_.entries_consumed->inc();
  ++consumed_since_ack_;
  maybe_send_ack();
  return process_sealed_request(msg);
}

/// Processes a sealed request whose queue entry has already been consumed.
bool DomainElement::process_sealed_request(const OrderedMsg& msg) {
  const crypto::SymmetricKey* key = party_->conn_table().key_for(msg.conn, msg.epoch);
  if (key == nullptr) {
    metrics_.entries_discarded->inc();  // key revoked mid-flight; nothing to do
    return true;
  }
  const auto conn_key = msg.conn.value;
  if (counters::before_eq(msg.rid.value, last_rid_[conn_key])) {
    metrics_.entries_discarded->inc();  // stale or duplicate request id (§3.6)
    return true;
  }

  const SealAad aad = seal_aad(msg.conn, msg.rid, msg.epoch, /*is_reply=*/false);
  Result<Bytes> plain = crypto::open(*key, aad, msg.sealed_giop);
  if (!plain.is_ok()) {
    metrics_.entries_discarded->inc();
    return true;
  }
  Result<cdr::GiopMessage> parsed = cdr::parse_giop(plain.value());
  if (!parsed.is_ok() ||
      !std::holds_alternative<cdr::RequestMessage>(parsed.value())) {
    metrics_.entries_discarded->inc();
    return true;
  }
  cdr::RequestMessage request =
      std::get<cdr::RequestMessage>(std::move(parsed).take());
  if (request.request_id != msg.rid) {
    metrics_.entries_discarded->inc();
    return true;
  }

  if (!is_singleton_domain(msg.origin_domain)) {
    // Replicated caller: vote on the ordered copies (§2 — "other servers
    // receiving a faulty request" detect faults; §3.6's mechanism).
    const ConnTable::Entry* conn_entry = party_->conn_table().find(msg.conn);
    if (conn_entry == nullptr ||
        conn_entry->record.client_domain != msg.origin_domain) {
      metrics_.entries_discarded->inc();
      return true;
    }
    const DomainInfo* caller = directory_->find_domain(msg.origin_domain);
    if (caller == nullptr || caller->rank_of_smiop(msg.origin) < 0) {
      metrics_.entries_discarded->inc();
      return true;
    }
    auto [it, created] = request_votes_.try_emplace(
        std::make_pair(msg.conn.value, msg.rid.value), caller->f,
        caller->vote_policy);
    Ballot ballot;
    ballot.source = msg.origin;
    ballot.raw = std::move(plain).take();
    ballot.value = request_ballot_value(request);
    metrics_.request_vote_copies->inc();
    const DecisionRef decision = it->second.add(std::move(ballot));
    if (!decision) return true;  // keep consuming copies
    Result<cdr::GiopMessage> winner = cdr::parse_giop(decision->winner.raw);
    request_votes_.erase(it);  // the decision goes with it
    if (!winner.is_ok() ||
        !std::holds_alternative<cdr::RequestMessage>(winner.value())) {
      metrics_.entries_discarded->inc();
      return true;
    }
    request = std::get<cdr::RequestMessage>(std::move(winner).take());
  }

  last_rid_[conn_key] = msg.rid.value;
  execute_request(msg, std::move(request));
  return !executing_;  // continue only if the upcall completed synchronously
}

void DomainElement::begin_key_wait(ConnectionId conn) {
  if (waiting_key_) return;
  waiting_key_ = conn;
  metrics_.key_waits->inc();
  party_->request_resend(conn, [this, conn](GmCommandResult result) {
    if (!waiting_key_ || *waiting_key_ != conn) return;
    if (!result.accepted) {
      // Authoritative rejection: the connection does not exist (or we are
      // not entitled). Discard the entry deterministically and move on.
      waiting_key_.reset();
      queue_->pop();
      metrics_.entries_discarded->inc();
      schedule_consume();
    }
    // Accepted: shares are on their way; the table subscription resumes us.
  });
}

void DomainElement::execute_request(const OrderedMsg& meta,
                                    cdr::RequestMessage request) {
  executing_ = true;
  context_->set_connection(meta.conn);
  orb_->adapter().dispatch(
      request, *context_, [this, meta](cdr::ReplyMessage reply) {
        finish_request(meta, std::move(reply));
        executing_ = false;
        schedule_consume();  // resume the queue (paper's nested-call resume)
      });
}

void DomainElement::finish_request(OrderedMsg meta, cdr::ReplyMessage reply) {
  metrics_.requests_executed->inc();
  if (reply_mutator_) reply = reply_mutator_(std::move(reply));
  seal_and_send_reply(meta.conn, meta.rid, meta.epoch, std::move(reply));
}

void DomainElement::seal_and_send_reply(ConnectionId conn, RequestId rid,
                                        KeyEpoch epoch, cdr::ReplyMessage reply) {
  const crypto::SymmetricKey* key = party_->conn_table().key_for(conn, epoch);
  if (key == nullptr) return;  // rekeyed away mid-execution; drop

  // Heterogeneity: this element marshals in its OWN byte order (§3.6 — this
  // is exactly why the client cannot vote byte-by-byte).
  const Bytes plain =
      cdr::encode_giop(cdr::GiopMessage(std::move(reply)), info_.byte_order);
  const crypto::Digest digest = crypto::sha256(ByteView(plain));
  DirectReplyMsg direct;
  direct.conn = conn;
  direct.rid = rid;
  direct.element = info_.smiop_node;
  direct.epoch = epoch;
  direct.plain_signature = smiop_key_.sign(DirectReplyMsg::signed_region(
      conn, rid, info_.smiop_node, epoch, digest));
  const SealAad aad = seal_aad(conn, rid, epoch, /*is_reply=*/true);
  // The nonce is a function of (element, rid), never a counter: this element
  // seals one reply per rid under a (conn, epoch) key, and a replacement that
  // keeps its identity and the connection's key must not restart a sequence
  // its predecessor already used (DESIGN.md §6j).
  direct.sealed_giop = crypto::seal(
      *key, crypto::make_nonce(info_.smiop_node.value, rid.value), aad, plain);
  // One wire frame, shared by every recipient (the fan-out below bumps the
  // refcount, it does not copy).
  const BufView wire = direct.encode();

  // Send to the requesting party: the singleton client, or every element of
  // the calling domain (each votes independently).
  const ConnTable::Entry* entry = party_->conn_table().find(conn);
  if (entry == nullptr) return;
  if (is_singleton_domain(entry->record.client_domain)) {
    net_.send(info_.smiop_node, entry->record.client_node, wire);
    metrics_.replies_sent->inc();
  } else if (const DomainInfo* caller =
                 directory_->find_domain(entry->record.client_domain)) {
    for (NodeId recipient : caller->smiop_nodes()) {
      net_.send(info_.smiop_node, recipient, wire);
      metrics_.replies_sent->inc();
    }
  }
  ITDOS_DEBUG(kLog) << "element " << info_.smiop_node.to_string() << " replied on conn "
                    << conn.to_string() << " rid " << rid.to_string();
}

void DomainElement::handle_shed(const BufView& entry) {
  // Every correct element sheds the same entries (the decision is part of
  // the replicated queue state machine), so the OVERLOAD replies built here
  // are value-identical across the domain and the requester's voter reaches
  // its f+1 matching exception ballots — overload is an explicit, observable
  // outcome, not a timeout.
  const Result<OrderedMsg> msg = OrderedMsg::decode(entry);
  if (!msg.is_ok()) return;
  metrics_.requests_shed->inc();
  cdr::ReplyMessage reply;
  reply.request_id = msg.value().rid;
  reply.status = cdr::ReplyStatus::kSystemException;
  reply.exception_detail = "ITDOS-OVERLOAD: admission control shed the request";
  seal_and_send_reply(msg.value().conn, msg.value().rid, msg.value().epoch, std::move(reply));
}

void DomainElement::maybe_send_ack() {
  if (consumed_since_ack_ < directory_->timing().ack_interval) return;
  consumed_since_ack_ = 0;
  metrics_.acks_sent->inc();
  self_client_->invoke(queue_->make_ack(info_.smiop_node).encode(), [](Result<Bytes>) {});
}

// ---------------------------------------------------------------------------
// Element replacement (§4 future work: "the ability to create new replicas
// on-the-fly to replace faulty replicas")
// ---------------------------------------------------------------------------

void DomainElement::begin_replacement() {
  queue_->begin_bootstrap();
  // Catch the BFT-level queue up first (f+1-certified snapshot from peers),
  // then have the group order our sync point.
  replica_->request_catch_up();
  submit_sync_point();
}

void DomainElement::submit_sync_point() {
  SyncPointMsg sync;
  sync.requester = info_.smiop_node;
  self_client_->invoke(sync.encode(), [](Result<Bytes>) {});
}

Result<Bytes> DomainElement::make_bundle_plain() const {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  enc.write_uint64(queue_->consumed_index());
  enc.write_uint32(static_cast<std::uint32_t>(last_rid_.size()));
  for (const auto& [conn, rid] : last_rid_) {
    enc.write_uint64(conn);
    enc.write_uint64(rid);
  }
  const auto& servants = orb_->adapter().servants();
  enc.write_uint32(static_cast<std::uint32_t>(servants.size()));
  for (const auto& [key, servant] : servants) {
    enc.write_uint64(key.value);
    ITDOS_ASSIGN_OR_RETURN(Bytes state, servant->save_state());
    enc.write_bytes(state);
  }
  return enc.take();
}

Status DomainElement::install_bundle_plain(ByteView plain,
                                           std::uint64_t consumed_index) {
  cdr::Decoder dec(plain, cdr::ByteOrder::kLittleEndian);
  ITDOS_ASSIGN_OR_RETURN(std::uint64_t recorded_index, dec.read_uint64());
  if (recorded_index != consumed_index) {
    return error(Errc::kMalformedMessage, "bundle index mismatch");
  }
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t rid_count, dec.read_uint32());
  if (rid_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile bundle rid count");
  }
  std::map<std::uint64_t, std::uint64_t> rids;
  for (std::uint32_t i = 0; i < rid_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t conn, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t rid, dec.read_uint64());
    rids[conn] = rid;
  }
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t servant_count, dec.read_uint32());
  if (servant_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile bundle servant count");
  }
  std::map<ObjectId, Bytes> states;
  for (std::uint32_t i = 0; i < servant_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t key, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(Bytes state, dec.read_bytes());
    states[ObjectId(key)] = std::move(state);
  }
  // Apply: every bundled object must exist locally and accept the state.
  for (const auto& [key, state] : states) {
    ITDOS_ASSIGN_OR_RETURN(std::shared_ptr<orb::Servant> servant,
                           orb_->adapter().find(key));
    ITDOS_RETURN_IF_ERROR(servant->load_state(state));
  }
  last_rid_ = std::move(rids);
  return Status::ok();
}

void DomainElement::handle_state_bundle(const StateBundleMsg& msg) {
  if (!queue_->bootstrapping()) return;  // not replacing; ignore
  if (msg.domain != domain_) return;
  const DomainInfo* info = directory_->find_domain(domain_);
  if (info == nullptr || info->rank_of_smiop(msg.element) < 0) return;
  if (msg.element == info_.smiop_node) return;
  const auto channel = crypto::SymmetricKey::from_bytes(
      keys_.key_for(msg.element, info_.smiop_node));
  Result<Bytes> plain = crypto::open(channel, /*aad=*/{}, msg.sealed_bundle);
  if (!plain.is_ok()) return;
  metrics_.bundles_received->inc();

  const crypto::Digest digest = crypto::sha256(ByteView(plain.value()));
  BundleOffer& offer = bundle_offers_[{msg.consumed_index, digest}];
  offer.senders.insert(msg.element);
  offer.plain = std::move(plain).take();
  if (static_cast<int>(offer.senders.size()) < info->f + 1) return;

  pending_install_ = {msg.consumed_index, offer.plain};
  try_finish_replacement();
}

void DomainElement::try_finish_replacement() {
  if (!pending_install_ || !queue_->bootstrapping()) return;
  const auto& [consumed_index, plain] = *pending_install_;
  const Status queue_status = queue_->complete_bootstrap(consumed_index);
  if (queue_status.code() == Errc::kUnavailable) {
    // Our BFT queue has not reached the sync point yet; retry shortly.
    net_.sim().schedule_after(millis(5), [this] { try_finish_replacement(); }, this);
    return;
  }
  if (!queue_status.is_ok()) {
    // GC passed the sync point: the bundles are stale. Re-run the sync.
    ITDOS_WARN(kLog) << "replacement sync point collected; re-syncing";
    bundle_offers_.clear();
    pending_install_.reset();
    submit_sync_point();
    return;
  }
  const Status install = install_bundle_plain(plain, consumed_index);
  pending_install_.reset();
  bundle_offers_.clear();
  if (!install.is_ok()) {
    ITDOS_ERROR(kLog) << "replacement bundle install failed: " << install.to_string();
    return;
  }
  ITDOS_INFO(kLog) << "element " << info_.smiop_node.to_string()
                   << " completed replacement at index " << consumed_index;
  schedule_consume();
}

void DomainElement::send_state_bundle(NodeId requester) {
  const Result<Bytes> plain = make_bundle_plain();
  if (!plain.is_ok()) {
    // Servants without persistence make the domain non-replaceable; the
    // requester simply never assembles f+1 bundles.
    ITDOS_WARN(kLog) << "cannot produce replacement bundle: "
                     << plain.status().to_string();
    return;
  }
  Bytes plain_bytes = plain.value();
  if (bundle_corruptor_) plain_bytes = bundle_corruptor_(std::move(plain_bytes));
  StateBundleMsg msg;
  msg.domain = domain_;
  msg.element = info_.smiop_node;
  msg.consumed_index = queue_->consumed_index();
  const auto channel = crypto::SymmetricKey::from_bytes(
      keys_.key_for(info_.smiop_node, requester));
  // The pairwise channel key lasts the whole deployment, so the nonce comes
  // from the sync point's queue position, which outlives this element.
  msg.sealed_bundle =
      crypto::seal(channel, crypto::make_nonce(info_.smiop_node.value, msg.consumed_index),
                   /*aad=*/{}, plain_bytes);
  net_.send(info_.smiop_node, requester, msg.encode());
  metrics_.bundles_sent->inc();
}

}  // namespace itdos::core
