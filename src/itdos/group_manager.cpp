#include "itdos/group_manager.hpp"

#include <algorithm>

#include "cdr/giop.hpp"
#include "common/log.hpp"
#include "crypto/cipher.hpp"

namespace itdos::core {

namespace {
constexpr std::string_view kLog = "itdos.gm";

/// `result` as a command's reply: the bytes the replica caches and writes
/// into each REPLY frame.
Bytes reply_of(const GmCommandResult& result) {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, result.size_hint());
  result.write(enc);
  return enc.take();
}
}  // namespace

Bytes dprf_input(ConnectionId conn, KeyEpoch epoch) {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  enc.write_string("itdos.commkey");
  enc.write_uint64(conn.value);
  enc.write_uint64(epoch.value);
  return enc.take();
}

// ---------------------------------------------------------------------------
// GmStateMachine
// ---------------------------------------------------------------------------

GmStateMachine::GmStateMachine(std::shared_ptr<const SystemDirectory> directory,
                               std::shared_ptr<const crypto::Keystore> keystore,
                               ShareDistributor* distributor,
                               telemetry::Hub* telemetry, NodeId self)
    : directory_(std::move(directory)),
      keystore_(std::move(keystore)),
      distributor_(distributor),
      tel_(telemetry),
      self_(self) {
  if (tel_ != nullptr) {
    telemetry::MetricsRegistry& reg = tel_->metrics();
    const auto counter = [&](std::string_view name) {
      return &reg.counter(telemetry::metric_name("gm", self_, name));
    };
    metrics_.opens = counter("opens");
    metrics_.resends = counter("resends");
    metrics_.change_requests = counter("change_requests");
    metrics_.expulsions = counter("expulsions");
    metrics_.rekeys = counter("rekeys");
    metrics_.membership_updates = counter("membership_updates");
  }
}

void GmStateMachine::trace(telemetry::TraceKind kind, std::uint64_t trace_id,
                           std::uint64_t a, std::uint64_t b) const {
  if (tel_ != nullptr) tel_->trace(kind, self_, trace_id, a, b);
}

bool GmStateMachine::is_expelled(DomainId domain, NodeId element_smiop) const {
  const auto it = expelled_.find(domain);
  return it != expelled_.end() && it->second.contains(element_smiop);
}

std::vector<NodeId> GmStateMachine::active_elements(const DomainInfo& info) const {
  std::vector<NodeId> out;
  if (const auto it = views_.find(info.id); it != views_.end()) {
    for (const MemberIdentity& member : it->second.members) {
      if (!is_expelled(info.id, member.smiop)) out.push_back(member.smiop);
    }
    return out;
  }
  for (const ElementInfo& element : info.elements) {
    if (!is_expelled(info.id, element.smiop_node)) out.push_back(element.smiop_node);
  }
  return out;
}

const MembershipView* GmStateMachine::membership_view(DomainId domain) const {
  const auto it = views_.find(domain);
  return it == views_.end() ? nullptr : &it->second;
}

std::uint64_t GmStateMachine::membership_epoch(DomainId domain) const {
  const auto it = views_.find(domain);
  return it == views_.end() ? 0 : it->second.epoch;
}

int GmStateMachine::member_rank(const DomainInfo& info, NodeId smiop) const {
  const auto it = views_.find(info.id);
  if (it == views_.end()) return info.rank_of_smiop(smiop);
  for (std::size_t i = 0; i < it->second.members.size(); ++i) {
    if (it->second.members[i].smiop == smiop) return static_cast<int>(i);
  }
  return -1;
}

NodeId GmStateMachine::member_gm_client(const DomainInfo& info, int rank) const {
  const auto it = views_.find(info.id);
  if (it == views_.end()) {
    return info.elements[static_cast<std::size_t>(rank)].gm_client_node;
  }
  return it->second.members[static_cast<std::size_t>(rank)].gm_client;
}

void GmStateMachine::ensure_views_seeded() {
  // Seed the replicated view of every domain known at the first ordered
  // command. Every replica executes that command before any recovery-driven
  // directory mutation can occur (recovery only starts after expulsions,
  // which are themselves ordered commands), so all replicas seed identical
  // views; from then on views evolve only through ordered membership_update
  // commands and live directory churn cannot diverge the replicas.
  for (const auto& [id, info] : directory_->domains()) {
    if (views_.contains(id)) continue;
    MembershipView view;
    for (const ElementInfo& element : info.elements) {
      view.members.push_back(
          MemberIdentity{element.smiop_node, element.gm_client_node});
    }
    views_.emplace(id, std::move(view));
  }
}

std::vector<NodeId> GmStateMachine::recipients_for(const ConnRecord& record) const {
  std::vector<NodeId> recipients;
  if (const DomainInfo* target = directory_->find_domain(record.target)) {
    for (NodeId node : active_elements(*target)) recipients.push_back(node);
  }
  if (is_singleton_domain(record.client_domain)) {
    recipients.push_back(record.client_node);
  } else if (const DomainInfo* client = directory_->find_domain(record.client_domain)) {
    for (NodeId node : active_elements(*client)) recipients.push_back(node);
  }
  return recipients;
}

Bytes GmStateMachine::execute(const BufView& request, const crypto::Digest&, NodeId client,
                              SeqNum) {
  ensure_views_seeded();
  const Result<GmCommand> command = decode_gm_command(request);
  GmCommandResult result;
  if (!command.is_ok()) {
    result.accepted = false;
    result.detail = "malformed command";
    return reply_of(result);
  }
  if (std::holds_alternative<OpenRequestMsg>(command.value())) {
    result = handle_open(std::get<OpenRequestMsg>(command.value()));
  } else if (std::holds_alternative<ResendSharesMsg>(command.value())) {
    result = handle_resend(std::get<ResendSharesMsg>(command.value()));
  } else if (std::holds_alternative<MembershipUpdateMsg>(command.value())) {
    result = handle_membership(std::get<MembershipUpdateMsg>(command.value()), client);
  } else if (std::holds_alternative<SetResponsePolicyMsg>(command.value())) {
    result = handle_policy(std::get<SetResponsePolicyMsg>(command.value()), client);
  } else {
    result = handle_change(std::get<ChangeRequestMsg>(command.value()), client);
  }
  return reply_of(result);
}

GmCommandResult GmStateMachine::handle_open(const OpenRequestMsg& msg) {
  GmCommandResult result;
  const DomainInfo* target = directory_->find_domain(msg.target);
  if (target == nullptr) {
    result.detail = "unknown target domain";
    return result;
  }
  if (msg.client_node.value == 0) {
    result.detail = "invalid client node";
    return result;
  }
  if (!is_singleton_domain(msg.client_domain) &&
      directory_->find_domain(msg.client_domain) == nullptr) {
    result.detail = "unknown client domain";
    return result;
  }
  if (!is_singleton_domain(msg.client_domain)) {
    // §3.3: all members of a replication domain share ONE connection to the
    // target. The first element's open_request creates it; the others join
    // it (shares are redistributed so a late or lossy element still keys).
    for (const auto& [conn, record] : conns_) {
      if (record.client_domain == msg.client_domain && record.target == msg.target) {
        if (distributor_ != nullptr) {
          distributor_->distribute(record, recipients_for(record));
        }
        if (metrics_.opens != nullptr) metrics_.opens->inc();
        trace(telemetry::TraceKind::kGmOpenRequest, 0, msg.client_domain.value,
              msg.target.value);
        result.accepted = true;
        result.conn = record.conn;
        result.epoch = record.epoch;
        return result;
      }
    }
  }
  ConnRecord record;
  record.conn = ConnectionId(next_conn_++);
  record.client_node = msg.client_node;
  record.client_domain = msg.client_domain;
  record.target = msg.target;
  record.epoch = KeyEpoch(1);
  record.member_epoch = membership_generation_;
  record.epoch_generations[record.epoch.value] = record.member_epoch;
  conns_[record.conn] = record;

  if (distributor_ != nullptr) {
    distributor_->distribute(record, recipients_for(record));
  }
  if (metrics_.opens != nullptr) metrics_.opens->inc();
  trace(telemetry::TraceKind::kGmOpenRequest, 0, msg.client_domain.value,
        msg.target.value);
  result.accepted = true;
  result.conn = record.conn;
  result.epoch = record.epoch;
  return result;
}

GmCommandResult GmStateMachine::handle_resend(const ResendSharesMsg& msg) {
  GmCommandResult result;
  const auto it = conns_.find(msg.conn);
  if (it == conns_.end()) {
    result.detail = "unknown connection";
    return result;
  }
  const std::vector<NodeId> entitled = recipients_for(it->second);
  if (std::find(entitled.begin(), entitled.end(), msg.requester) == entitled.end()) {
    // Expelled elements (and strangers) get nothing — resend must not leak
    // post-rekey key material.
    result.detail = "requester not entitled to this connection's key";
    return result;
  }
  if (distributor_ != nullptr) {
    // Serve every retained epoch, oldest first: a fresh replacement element
    // may still need pre-admission epochs to drain queue entries sealed
    // before its rekey — discarding those would diverge its servant state
    // from peers that held the old keys.
    for (const auto& [epoch, generation] : it->second.epoch_generations) {
      ConnRecord historical = it->second;
      historical.epoch = KeyEpoch(epoch);
      historical.member_epoch = generation;
      distributor_->distribute(historical, {msg.requester});
    }
    if (it->second.epoch_generations.empty()) {
      distributor_->distribute(it->second, {msg.requester});
    }
  }
  if (metrics_.resends != nullptr) metrics_.resends->inc();
  trace(telemetry::TraceKind::kGmResend, 0, it->second.epoch.value);
  result.accepted = true;
  result.conn = it->second.conn;
  result.epoch = it->second.epoch;
  return result;
}

Status GmStateMachine::verify_proof(const ChangeRequestMsg& msg) const {
  const DomainInfo* accused = directory_->find_domain(msg.accused_domain);
  if (accused == nullptr) {
    return error(Errc::kInvalidArgument, "unknown accused domain");
  }
  // Enough signed replies to vote: the voter's receive threshold (§3.6).
  const int needed = 2 * accused->f + 1;
  if (static_cast<int>(msg.proof.size()) < needed) {
    return error(Errc::kPermissionDenied, "proof has too few signed messages");
  }
  std::set<NodeId> sources;
  Vote vote(accused->f, accused->vote_policy);
  bool accused_present = false;
  for (const ProofEntry& entry : msg.proof) {
    if (member_rank(*accused, entry.element) < 0) {
      return error(Errc::kPermissionDenied, "proof entry from non-member element");
    }
    if (!sources.insert(entry.element).second) {
      return error(Errc::kPermissionDenied, "duplicate proof entry");
    }
    // Signature binds the plaintext to the element, with conn + rid serving
    // as the sequence-number replay protection the paper calls for.
    const crypto::Digest plain_digest = crypto::sha256(ByteView(entry.plain_giop));
    const auto region = DirectReplyMsg::signed_region(msg.conn, msg.rid, entry.element,
                                                       entry.epoch, plain_digest);
    ITDOS_RETURN_IF_ERROR(keystore_->verify(entry.element, region, entry.signature));

    // The standalone marshalling engine: unmarshal the GIOP reply without an
    // ORB and vote on the data (§3.6).
    Ballot ballot;
    ballot.source = entry.element;
    ballot.raw = entry.plain_giop;
    Result<cdr::GiopMessage> parsed = cdr::parse_giop(entry.plain_giop);
    if (parsed.is_ok() && std::holds_alternative<cdr::ReplyMessage>(parsed.value())) {
      const auto& reply = std::get<cdr::ReplyMessage>(parsed.value());
      if (reply.request_id != msg.rid) {
        return error(Errc::kPermissionDenied, "proof reply for wrong request id");
      }
      ballot.value = cdr::Value::structure(
          {cdr::Field("status", cdr::Value::octet(static_cast<std::uint8_t>(reply.status))),
           cdr::Field("result", reply.result)});
    }
    // Duplicate-source ballots were rejected above; a late ballot after the
    // vote decided is fine — decided() below is the only outcome consulted.
    (void)vote.add(std::move(ballot));
    accused_present |= (entry.element == msg.accused_element);
  }
  if (!accused_present) {
    return error(Errc::kPermissionDenied, "proof does not include the accused's reply");
  }
  if (!vote.decided()) {
    return error(Errc::kPermissionDenied, "proof replies do not reach a decision");
  }
  const std::vector<NodeId> dissenters = vote.dissenters();
  if (std::find(dissenters.begin(), dissenters.end(), msg.accused_element) ==
      dissenters.end()) {
    return error(Errc::kPermissionDenied,
                 "accused element agrees with the decided value");
  }
  return Status::ok();
}

GmCommandResult GmStateMachine::handle_change(const ChangeRequestMsg& msg,
                                              NodeId submitter) {
  GmCommandResult result;
  if (metrics_.change_requests != nullptr) metrics_.change_requests->inc();
  trace(telemetry::TraceKind::kGmChangeRequest,
        telemetry::trace_id(msg.conn, msg.rid), msg.accused_element.value,
        msg.conn.value);
  const DomainInfo* accused = directory_->find_domain(msg.accused_domain);
  if (accused == nullptr) {
    result.detail = "unknown accused domain";
    return result;
  }
  // Expelled-first so accusations of identities already retired by a
  // membership_update (and thus no longer in the view) stay idempotent.
  if (is_expelled(msg.accused_domain, msg.accused_element)) {
    result.accepted = true;  // idempotent: already expelled
    result.detail = "already expelled";
    return result;
  }
  if (member_rank(*accused, msg.accused_element) < 0) {
    result.detail = "accused element not in domain";
    return result;
  }

  if (is_singleton_domain(msg.reporter_domain)) {
    // Singleton reporter: proof required (§3.6 — "a potential vulnerability
    // is that the client is malicious and is attempting to expel correct
    // processes").
    if (const Status proof = verify_proof(msg); !proof.is_ok()) {
      result.detail = "proof rejected: " + proof.to_string();
      ITDOS_INFO(kLog) << "change_request rejected: " << result.detail;
      return result;
    }
  } else {
    // Replication-domain reporter: no proof, but f+1 distinct elements of
    // that domain must independently request the same expulsion.
    const DomainInfo* reporter_domain = directory_->find_domain(msg.reporter_domain);
    if (reporter_domain == nullptr) {
      result.detail = "unknown reporter domain";
      return result;
    }
    const int rank = member_rank(*reporter_domain, msg.reporter);
    if (rank < 0 || member_gm_client(*reporter_domain, rank) != submitter) {
      result.detail = "reporter identity mismatch";
      return result;
    }
    auto& tally =
        tallies_[{msg.accused_element, msg.conn.value, msg.rid.value}];
    tally.insert(msg.reporter);
    if (static_cast<int>(tally.size()) < reporter_domain->f + 1) {
      result.accepted = true;
      result.detail = "recorded; awaiting quorum";
      return result;
    }
    // Quorum complete: one strike. The response policy (§6f) decides how
    // many DISTINCT completed strikes a suspicion-only expulsion needs —
    // conservative mode demands repeated independent evidence. The tally is
    // consumed so the same (conn, rid) incident cannot strike twice.
    tallies_.erase({msg.accused_element, msg.conn.value, msg.rid.value});
    if (++strike_counts_[msg.accused_element] < policy_strikes_) {
      result.accepted = true;
      result.detail = "strike recorded; below expulsion threshold";
      return result;
    }
  }

  expel(msg.accused_domain, msg.accused_element);
  result.accepted = true;
  result.detail = "expelled";
  return result;
}

GmCommandResult GmStateMachine::handle_membership(const MembershipUpdateMsg& msg,
                                                  NodeId submitter) {
  GmCommandResult result;
  if (metrics_.membership_updates != nullptr) metrics_.membership_updates->inc();
  // The authority identity is set once at deployment construction, before
  // any ordered command, so this live read is identical on every replica.
  const NodeId authority = directory_->recovery_authority();
  if (authority.value == 0 || submitter != authority) {
    result.detail = "submitter is not the recovery authority";
    return result;
  }
  if (directory_->find_domain(msg.domain) == nullptr) {
    result.detail = "unknown domain";
    return result;
  }
  const auto view_it = views_.find(msg.domain);
  if (view_it == views_.end()) {
    result.detail = "domain has no membership view";
    return result;
  }
  MembershipView& view = view_it->second;
  if (msg.rank >= view.members.size()) {
    result.detail = "rank out of range";
    return result;
  }
  MemberIdentity& slot = view.members[msg.rank];
  if (msg.expected_epoch != view.epoch) {
    if (view.epoch == msg.expected_epoch + 1 && slot.smiop == msg.admitted_element) {
      result.accepted = true;  // idempotent: this exact update already applied
      result.epoch = KeyEpoch(view.epoch);
      result.detail = "already admitted";
      return result;
    }
    result.detail = "membership epoch mismatch";
    return result;
  }
  if (slot.smiop != msg.retired_element) {
    result.detail = "retired identity does not hold the slot";
    return result;
  }
  if (is_expelled(msg.domain, msg.admitted_element)) {
    result.detail = "admitted identity was previously expelled";
    return result;
  }
  for (const MemberIdentity& member : view.members) {
    if (member.smiop == msg.admitted_element) {
      result.detail = "admitted identity is already a member";
      return result;
    }
  }

  slot = MemberIdentity{msg.admitted_element, msg.admitted_gm_client};
  ++view.epoch;
  ++membership_generation_;
  trace(telemetry::TraceKind::kGmMembershipUpdate,
        telemetry::trace_id(ConnectionId(msg.domain.value), RequestId(msg.rank)),
        msg.admitted_element.value, view.epoch);
  ITDOS_INFO(kLog) << "membership update: domain " << msg.domain.to_string()
                   << " rank " << msg.rank << " retires "
                   << msg.retired_element.to_string() << " admits "
                   << msg.admitted_element.to_string() << " (epoch "
                   << view.epoch << ")";
  // Retire the old identity — §3.5's "keying out", without charging the
  // fault budget (retirement is recovery, not necessarily intrusion) — then
  // rekey so the fresh identity receives generation-refreshed shares and
  // the retired one receives nothing.
  retire(msg.domain, msg.retired_element, /*count_expulsion=*/false);
  rekey_domain(msg.domain);
  result.accepted = true;
  result.epoch = KeyEpoch(view.epoch);
  result.detail = "admitted";
  return result;
}

GmCommandResult GmStateMachine::handle_policy(const SetResponsePolicyMsg& msg,
                                              NodeId submitter) {
  GmCommandResult result;
  // Same authorization as membership updates: only the recovery authority
  // (the feedback controller's actuator) may retune the response policy.
  const NodeId authority = directory_->recovery_authority();
  if (authority.value == 0 || submitter != authority) {
    result.detail = "submitter is not the recovery authority";
    return result;
  }
  if (msg.laggard_strikes == 0) {
    result.detail = "laggard_strikes must be at least 1";
    return result;
  }
  policy_strikes_ = msg.laggard_strikes;
  trace(telemetry::TraceKind::kGmPolicy, 0, policy_strikes_);
  ITDOS_INFO(kLog) << "response policy: suspicion expulsions now need "
                   << policy_strikes_ << " strike(s)";
  result.accepted = true;
  result.detail = "policy set";
  return result;
}

void GmStateMachine::retire(DomainId domain, NodeId element_smiop,
                            bool count_expulsion) {
  expelled_[domain].insert(element_smiop);
  if (count_expulsion) {
    ++expulsions_;
    if (metrics_.expulsions != nullptr) metrics_.expulsions->inc();
  }
  trace(telemetry::TraceKind::kGmExpulsion, 0, element_smiop.value,
        count_expulsion ? 0 : 1);
  for (const ExpulsionObserver& observer : expulsion_observers_) {
    observer(domain, element_smiop);
  }
}

void GmStateMachine::rekey_domain(DomainId domain) {
  // Rekey every connection the domain participates in, excluding retired
  // and expelled identities (§3.5: "re-keying the communication group,
  // excepting the compromised element").
  for (auto& [conn, record] : conns_) {
    if (record.target != domain && record.client_domain != domain) continue;
    record.epoch = KeyEpoch(record.epoch.value + 1);
    record.member_epoch = membership_generation_;
    record.epoch_generations[record.epoch.value] = record.member_epoch;
    while (record.epoch_generations.size() > kMaxRetainedEpochs + 1) {
      record.epoch_generations.erase(record.epoch_generations.begin());
    }
    if (metrics_.rekeys != nullptr) metrics_.rekeys->inc();
    trace(telemetry::TraceKind::kGmRekey, 0, record.conn.value, record.epoch.value);
    if (distributor_ != nullptr) {
      distributor_->distribute(record, recipients_for(record));
    }
  }
}

void GmStateMachine::expel(DomainId domain, NodeId element_smiop) {
  retire(domain, element_smiop, /*count_expulsion=*/true);
  ITDOS_INFO(kLog) << "expelling element " << element_smiop.to_string()
                   << " from domain " << domain.to_string();
  rekey_domain(domain);
}

bft::AppSnapshot GmStateMachine::snapshot() const {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  enc.write_uint64(next_conn_);
  enc.write_uint64(expulsions_);
  enc.write_uint64(membership_generation_);
  enc.write_uint32(static_cast<std::uint32_t>(conns_.size()));
  for (const auto& [conn, record] : conns_) {
    enc.write_uint64(record.conn.value);
    enc.write_uint64(record.client_node.value);
    enc.write_uint64(record.client_domain.value);
    enc.write_uint64(record.target.value);
    enc.write_uint64(record.epoch.value);
    enc.write_uint64(record.member_epoch);
    enc.write_uint32(static_cast<std::uint32_t>(record.epoch_generations.size()));
    for (const auto& [epoch, generation] : record.epoch_generations) {
      enc.write_uint64(epoch);
      enc.write_uint64(generation);
    }
  }
  enc.write_uint32(static_cast<std::uint32_t>(views_.size()));
  for (const auto& [domain, view] : views_) {
    enc.write_uint64(domain.value);
    enc.write_uint64(view.epoch);
    enc.write_uint32(static_cast<std::uint32_t>(view.members.size()));
    for (const MemberIdentity& member : view.members) {
      enc.write_uint64(member.smiop.value);
      enc.write_uint64(member.gm_client.value);
    }
  }
  enc.write_uint32(static_cast<std::uint32_t>(expelled_.size()));
  for (const auto& [domain, elements] : expelled_) {
    enc.write_uint64(domain.value);
    enc.write_uint32(static_cast<std::uint32_t>(elements.size()));
    for (NodeId element : elements) enc.write_uint64(element.value);
  }
  enc.write_uint32(static_cast<std::uint32_t>(tallies_.size()));
  for (const auto& [key, reporters] : tallies_) {
    enc.write_uint64(std::get<0>(key).value);
    enc.write_uint64(std::get<1>(key));
    enc.write_uint64(std::get<2>(key));
    enc.write_uint32(static_cast<std::uint32_t>(reporters.size()));
    for (NodeId reporter : reporters) enc.write_uint64(reporter.value);
  }
  enc.write_uint64(policy_strikes_);
  enc.write_uint32(static_cast<std::uint32_t>(strike_counts_.size()));
  for (const auto& [element, strikes] : strike_counts_) {
    enc.write_uint64(element.value);
    enc.write_uint64(strikes);
  }
  return {enc.take(), {}};
}

Status GmStateMachine::restore(const bft::AppSnapshot& snapshot) {
  cdr::Decoder dec(snapshot.state, cdr::ByteOrder::kLittleEndian);
  GmStateMachine fresh(directory_, keystore_, distributor_);
  ITDOS_ASSIGN_OR_RETURN(fresh.next_conn_, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(fresh.expulsions_, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(fresh.membership_generation_, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t conn_count, dec.read_uint32());
  if (conn_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile snapshot conn count");
  }
  for (std::uint32_t i = 0; i < conn_count; ++i) {
    ConnRecord record;
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t conn, dec.read_uint64());
    record.conn = ConnectionId(conn);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t client_node, dec.read_uint64());
    record.client_node = NodeId(client_node);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t client_domain, dec.read_uint64());
    record.client_domain = DomainId(client_domain);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t target, dec.read_uint64());
    record.target = DomainId(target);
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t epoch, dec.read_uint64());
    record.epoch = KeyEpoch(epoch);
    ITDOS_ASSIGN_OR_RETURN(record.member_epoch, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint32_t history_count, dec.read_uint32());
    if (history_count > dec.remaining()) {
      return error(Errc::kMalformedMessage, "hostile epoch history count");
    }
    for (std::uint32_t j = 0; j < history_count; ++j) {
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t hist_epoch, dec.read_uint64());
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t generation, dec.read_uint64());
      record.epoch_generations[hist_epoch] = generation;
    }
    fresh.conns_[record.conn] = record;
  }
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t view_count, dec.read_uint32());
  if (view_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile snapshot view count");
  }
  for (std::uint32_t i = 0; i < view_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t domain, dec.read_uint64());
    MembershipView view;
    ITDOS_ASSIGN_OR_RETURN(view.epoch, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint32_t member_count, dec.read_uint32());
    if (member_count > dec.remaining()) {
      return error(Errc::kMalformedMessage, "hostile membership view count");
    }
    for (std::uint32_t j = 0; j < member_count; ++j) {
      MemberIdentity member;
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t smiop, dec.read_uint64());
      member.smiop = NodeId(smiop);
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t gm_client, dec.read_uint64());
      member.gm_client = NodeId(gm_client);
      view.members.push_back(member);
    }
    fresh.views_.emplace(DomainId(domain), std::move(view));
  }
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t domain_count, dec.read_uint32());
  if (domain_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile snapshot domain count");
  }
  for (std::uint32_t i = 0; i < domain_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t domain, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint32_t element_count, dec.read_uint32());
    if (element_count > dec.remaining()) {
      return error(Errc::kMalformedMessage, "hostile snapshot element count");
    }
    for (std::uint32_t j = 0; j < element_count; ++j) {
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t element, dec.read_uint64());
      fresh.expelled_[DomainId(domain)].insert(NodeId(element));
    }
  }
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t tally_count, dec.read_uint32());
  if (tally_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile snapshot tally count");
  }
  for (std::uint32_t i = 0; i < tally_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t accused, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t conn, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t rid, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint32_t reporter_count, dec.read_uint32());
    if (reporter_count > dec.remaining()) {
      return error(Errc::kMalformedMessage, "hostile snapshot reporter count");
    }
    auto& tally = fresh.tallies_[{NodeId(accused), conn, rid}];
    for (std::uint32_t j = 0; j < reporter_count; ++j) {
      ITDOS_ASSIGN_OR_RETURN(std::uint64_t reporter, dec.read_uint64());
      tally.insert(NodeId(reporter));
    }
  }
  ITDOS_ASSIGN_OR_RETURN(fresh.policy_strikes_, dec.read_uint64());
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t strike_count, dec.read_uint32());
  if (strike_count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile snapshot strike count");
  }
  for (std::uint32_t i = 0; i < strike_count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t element, dec.read_uint64());
    ITDOS_ASSIGN_OR_RETURN(std::uint64_t strikes, dec.read_uint64());
    fresh.strike_counts_[NodeId(element)] = strikes;
  }
  next_conn_ = fresh.next_conn_;
  expulsions_ = fresh.expulsions_;
  membership_generation_ = fresh.membership_generation_;
  conns_ = std::move(fresh.conns_);
  views_ = std::move(fresh.views_);
  expelled_ = std::move(fresh.expelled_);
  tallies_ = std::move(fresh.tallies_);
  policy_strikes_ = fresh.policy_strikes_;
  strike_counts_ = std::move(fresh.strike_counts_);
  return Status::ok();
}

// ---------------------------------------------------------------------------
// GmElement
// ---------------------------------------------------------------------------

/// Sends this element's DPRF share for (conn, epoch) to each recipient over
/// the pairwise secure channel (footnote 2 of §3.5).
class GmElement::Distributor : public ShareDistributor {
 public:
  Distributor(net::Network& net, std::shared_ptr<const SystemDirectory> directory,
              int index, const bft::SessionKeys& keys,
              crypto::DprfElementKeys dprf_keys)
      : net_(net),
        directory_(std::move(directory)),
        index_(index),
        keys_(keys),
        dprf_keys_(std::move(dprf_keys)) {}

  void distribute(const ConnRecord& record,
                  const std::vector<NodeId>& recipients) override {
    if (withhold_) return;
    const NodeId my_node = directory_->gm().elements[index_].smiop_node;
    const Bytes input = dprf_input(record.conn, record.epoch);
    crypto::DprfShare share = evaluator_for(record.member_epoch).evaluate(input);
    if (corrupt_) {
      for (auto& [id, digest] : share.evaluations) digest[0] ^= 0xff;
    }
    const BufView share_wire = share.encode();
    for (NodeId recipient : recipients) {
      KeyShareMsg msg;
      msg.conn = record.conn;
      msg.epoch = record.epoch;
      msg.target_domain = record.target;
      msg.client_node = record.client_node;
      msg.client_domain = record.client_domain;
      msg.gm_index = static_cast<std::uint32_t>(index_);
      msg.member_epoch = record.member_epoch;
      const auto channel_key = crypto::SymmetricKey::from_bytes(
          keys_.key_for(my_node, recipient));
      msg.sealed_share = crypto::seal(channel_key,
                                      crypto::make_nonce(my_node.value, nonce_ctr_++),
                                      /*aad=*/msg.framing_aad(), share_wire);
      net_.send(my_node, recipient, msg.encode());
    }
  }

  bool withhold_ = false;
  bool corrupt_ = false;

 private:
  /// Evaluator over the sub-keys proactively refreshed to the given
  /// membership generation (crypto::dprf_refresh; generation 0 = deal-time
  /// keys). Cached — every conn at the same generation reuses it.
  const crypto::DprfElement& evaluator_for(std::uint64_t member_epoch) {
    auto it = evaluators_.find(member_epoch);
    if (it == evaluators_.end()) {
      it = evaluators_
               .emplace(member_epoch,
                        crypto::DprfElement(directory_->dprf_params(),
                                            crypto::dprf_refresh(dprf_keys_,
                                                                 member_epoch)))
               .first;
    }
    return it->second;
  }

  net::Network& net_;
  std::shared_ptr<const SystemDirectory> directory_;
  int index_;
  const bft::SessionKeys& keys_;
  crypto::DprfElementKeys dprf_keys_;
  std::map<std::uint64_t, crypto::DprfElement> evaluators_;
  std::uint64_t nonce_ctr_ = 1;
};

GmElement::GmElement(net::Network& net,
                     std::shared_ptr<const SystemDirectory> directory, int index,
                     const bft::SessionKeys& keys, crypto::SigningKey bft_key,
                     std::shared_ptr<const crypto::Keystore> keystore,
                     crypto::DprfElementKeys dprf_keys)
    : net_(net), directory_(std::move(directory)), index_(index) {
  distributor_ = std::make_unique<Distributor>(net_, directory_, index_, keys,
                                               std::move(dprf_keys));
  auto state = std::make_unique<GmStateMachine>(
      directory_, keystore, distributor_.get(), &net_.sim().telemetry(),
      directory_->gm().elements[index_].smiop_node);
  state_ = state.get();
  const bft::BftConfig config =
      directory_->gm().make_bft_config(directory_->timing());
  replica_ = std::make_unique<bft::Replica>(
      net_, directory_->gm().elements[index_].bft_node, config, keys,
      std::move(bft_key), std::move(keystore), std::move(state));
}

GmElement::~GmElement() = default;

void GmElement::set_withhold_shares(bool withhold) {
  distributor_->withhold_ = withhold;
}

void GmElement::set_corrupt_shares(bool corrupt) {
  distributor_->corrupt_ = corrupt;
}

}  // namespace itdos::core
