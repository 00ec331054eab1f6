// Unit tests for the GmStateMachine (deterministic core) and the key agent,
// exercised without a live network: commands are applied directly, shares
// captured through a fake distributor.
#include "itdos/group_manager.hpp"

#include <gtest/gtest.h>

#include "bft/harness.hpp"
#include "cdr/giop.hpp"
#include "itdos/key_agent.hpp"

namespace itdos::core {
namespace {

/// Captures distribute() calls instead of sending shares.
class FakeDistributor : public ShareDistributor {
 public:
  struct Call {
    ConnRecord record;
    std::vector<NodeId> recipients;
  };
  void distribute(const ConnRecord& record,
                  const std::vector<NodeId>& recipients) override {
    calls.push_back({record, recipients});
  }
  std::vector<Call> calls;
};

class GmStateMachineTest : public ::testing::Test {
 protected:
  GmStateMachineTest() {
    DomainInfo gm;
    gm.id = DomainId(1);
    gm.f = 1;
    gm.group = McastGroupId(1);
    for (int i = 0; i < 4; ++i) gm.elements.push_back(element_info(100 + i * 10));
    auto directory = std::make_shared<SystemDirectory>(gm, ProtocolTiming{});

    DomainInfo server;
    server.id = DomainId(10);
    server.f = 1;
    server.group = McastGroupId(10);
    server.vote_policy = VotePolicy::exact();
    for (int i = 0; i < 4; ++i) server.elements.push_back(element_info(500 + i * 10));
    directory->add_domain(server);
    directory->set_recovery_authority(NodeId(8000));
    directory_ = directory;

    keystore_ = std::make_shared<crypto::Keystore>();
    gm_ = std::make_unique<GmStateMachine>(directory_, keystore_, &distributor_);
  }

  static ElementInfo element_info(std::uint64_t base) {
    ElementInfo info;
    info.bft_node = NodeId(base);
    info.smiop_node = NodeId(base + 1);
    info.gm_client_node = NodeId(base + 2);
    info.self_client_node = NodeId(base + 3);
    return info;
  }

  GmCommandResult run(const GmCommand& cmd, NodeId submitter = NodeId(9000)) {
    const Bytes reply = bft::execute_with_digest(*gm_, encode_gm_command(cmd), submitter,
                                                 SeqNum(seq_++));
    auto decoded = GmCommandResult::decode(reply);
    EXPECT_TRUE(decoded.is_ok());
    return decoded.value_or(GmCommandResult{});
  }

  GmCommandResult open_singleton(std::uint64_t client_node = 9000) {
    OpenRequestMsg open;
    open.client_node = NodeId(client_node);
    open.client_domain = DomainId(0);
    open.target = DomainId(10);
    return run(GmCommand(open));
  }

  /// Builds a valid proof: 3 signed replies, one (the accused's) faulty.
  ChangeRequestMsg make_proof_change(ConnectionId conn, NodeId accused,
                                     bool accused_lies = true) {
    ChangeRequestMsg change;
    change.reporter = NodeId(9000);
    change.reporter_domain = DomainId(0);
    change.accused_domain = DomainId(10);
    change.accused_element = accused;
    change.conn = conn;
    change.rid = RequestId(1);
    const DomainInfo* server = directory_->find_domain(DomainId(10));
    Rng rng(5);
    for (int i = 0; i < 3; ++i) {
      const NodeId element = server->elements[i].smiop_node;
      cdr::ReplyMessage reply;
      reply.request_id = RequestId(1);
      const bool is_accused = (element == accused);
      reply.result = cdr::Value::int64((is_accused && accused_lies) ? 666 : 42);
      ProofEntry entry;
      entry.element = element;
      entry.epoch = KeyEpoch(1);
      entry.plain_giop = cdr::encode_giop(cdr::GiopMessage(reply));
      const crypto::SigningKey key = keystore_->issue(element, rng);
      entry.signature = key.sign(DirectReplyMsg::signed_region(
          conn, RequestId(1), element, KeyEpoch(1),
          crypto::sha256(ByteView(entry.plain_giop))));
      change.proof.push_back(std::move(entry));
    }
    return change;
  }

  std::shared_ptr<const SystemDirectory> directory_;
  std::shared_ptr<crypto::Keystore> keystore_;
  FakeDistributor distributor_;
  std::unique_ptr<GmStateMachine> gm_;
  std::uint64_t seq_ = 1;
};

TEST_F(GmStateMachineTest, OpenAssignsConnAndDistributes) {
  const GmCommandResult result = open_singleton();
  ASSERT_TRUE(result.accepted) << result.detail;
  EXPECT_EQ(result.conn, ConnectionId(1));
  EXPECT_EQ(result.epoch, KeyEpoch(1));
  ASSERT_EQ(distributor_.calls.size(), 1u);
  // Recipients: 4 server elements + the singleton client.
  EXPECT_EQ(distributor_.calls[0].recipients.size(), 5u);
  EXPECT_EQ(distributor_.calls[0].record.client_node, NodeId(9000));
}

TEST_F(GmStateMachineTest, OpenRejectsUnknownTarget) {
  OpenRequestMsg open;
  open.client_node = NodeId(9000);
  open.target = DomainId(404);
  const GmCommandResult result = run(GmCommand(open));
  EXPECT_FALSE(result.accepted);
}

TEST_F(GmStateMachineTest, SequentialOpensGetDistinctConns) {
  EXPECT_EQ(open_singleton(9000).conn, ConnectionId(1));
  EXPECT_EQ(open_singleton(9001).conn, ConnectionId(2));
  EXPECT_EQ(gm_->connections().size(), 2u);
}

TEST_F(GmStateMachineTest, ReplicatedCallersShareOneConnection) {
  // §3.3: all members of a replication domain get the same connection.
  DomainInfo caller;
  caller.id = DomainId(20);
  caller.f = 1;
  caller.group = McastGroupId(20);
  for (int i = 0; i < 4; ++i) caller.elements.push_back(element_info(700 + i * 10));
  // Rebuild the directory with the caller domain present.
  auto directory = std::make_shared<SystemDirectory>(directory_->gm(), ProtocolTiming{});
  directory->add_domain(*directory_->find_domain(DomainId(10)));
  directory->add_domain(caller);
  GmStateMachine gm(directory, keystore_, &distributor_);

  OpenRequestMsg open;
  open.client_domain = DomainId(20);
  open.target = DomainId(10);
  std::set<std::uint64_t> conns;
  for (int i = 0; i < 4; ++i) {
    open.client_node = caller.elements[i].smiop_node;
    const Bytes reply = bft::execute_with_digest(gm, encode_gm_command(GmCommand(open)),
                                                 caller.elements[i].gm_client_node, SeqNum(i + 1));
    conns.insert(GmCommandResult::decode(reply).value().conn.value);
  }
  EXPECT_EQ(conns.size(), 1u);
  EXPECT_EQ(gm.connections().size(), 1u);
}

TEST_F(GmStateMachineTest, MalformedCommandRejectedNotFatal) {
  const Bytes reply = bft::execute_with_digest(*gm_, to_bytes("junk"), NodeId(1), SeqNum(1));
  const auto result = GmCommandResult::decode(reply);
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result.value().accepted);
}

TEST_F(GmStateMachineTest, ValidProofExpelsAndRekeys) {
  const GmCommandResult open = open_singleton();
  const NodeId accused = directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  distributor_.calls.clear();

  const GmCommandResult result = run(GmCommand(make_proof_change(open.conn, accused)));
  ASSERT_TRUE(result.accepted) << result.detail;
  EXPECT_TRUE(gm_->is_expelled(DomainId(10), accused));
  EXPECT_EQ(gm_->expulsions(), 1u);
  // The rekey redistributed to everyone EXCEPT the expelled element.
  ASSERT_EQ(distributor_.calls.size(), 1u);
  EXPECT_EQ(distributor_.calls[0].record.epoch, KeyEpoch(2));
  const auto& recipients = distributor_.calls[0].recipients;
  EXPECT_EQ(recipients.size(), 4u);  // 3 remaining elements + client
  EXPECT_EQ(std::count(recipients.begin(), recipients.end(), accused), 0);
}

TEST_F(GmStateMachineTest, ProofWithHonestAccusedRejected) {
  // A malicious client tries to expel a CORRECT element: the proof's replies
  // all agree, so the accused is not a dissenter.
  const GmCommandResult open = open_singleton();
  const NodeId accused = directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  const GmCommandResult result =
      run(GmCommand(make_proof_change(open.conn, accused, /*accused_lies=*/false)));
  EXPECT_FALSE(result.accepted);
  EXPECT_FALSE(gm_->is_expelled(DomainId(10), accused));
}

TEST_F(GmStateMachineTest, ProofWithForgedSignatureRejected) {
  const GmCommandResult open = open_singleton();
  const NodeId accused = directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  ChangeRequestMsg change = make_proof_change(open.conn, accused);
  change.proof[1].signature[0] ^= 0xff;
  const GmCommandResult result = run(GmCommand(change));
  EXPECT_FALSE(result.accepted);
}

TEST_F(GmStateMachineTest, ProofWithTamperedPlaintextRejected) {
  // Altering the plaintext after signing breaks the digest binding.
  const GmCommandResult open = open_singleton();
  const NodeId accused = directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  ChangeRequestMsg change = make_proof_change(open.conn, accused);
  Bytes tampered = change.proof[0].plain_giop.clone_bytes();
  tampered[20] ^= 0x01;
  change.proof[0].plain_giop = std::move(tampered);
  const GmCommandResult result = run(GmCommand(change));
  EXPECT_FALSE(result.accepted);
}

TEST_F(GmStateMachineTest, ProofTooSmallRejected) {
  const GmCommandResult open = open_singleton();
  const NodeId accused = directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  ChangeRequestMsg change = make_proof_change(open.conn, accused);
  change.proof.pop_back();  // 2 < 2f+1 = 3
  const GmCommandResult result = run(GmCommand(change));
  EXPECT_FALSE(result.accepted);
}

TEST_F(GmStateMachineTest, ProofMissingAccusedRejected) {
  const GmCommandResult open = open_singleton();
  const DomainInfo* server = directory_->find_domain(DomainId(10));
  // Accuse element 3, but the proof only contains replies from 0..2.
  ChangeRequestMsg change =
      make_proof_change(open.conn, server->elements[1].smiop_node);
  change.accused_element = server->elements[3].smiop_node;
  const GmCommandResult result = run(GmCommand(change));
  EXPECT_FALSE(result.accepted);
}

TEST_F(GmStateMachineTest, ProofReplayForWrongRidRejected) {
  const GmCommandResult open = open_singleton();
  const NodeId accused = directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  ChangeRequestMsg change = make_proof_change(open.conn, accused);
  change.rid = RequestId(2);  // signatures bind rid 1
  const GmCommandResult result = run(GmCommand(change));
  EXPECT_FALSE(result.accepted);
}

TEST_F(GmStateMachineTest, DomainQuorumExpulsion) {
  const DomainInfo* server = directory_->find_domain(DomainId(10));
  const NodeId accused = server->elements[3].smiop_node;
  ChangeRequestMsg change;
  change.reporter_domain = DomainId(10);
  change.accused_domain = DomainId(10);
  change.accused_element = accused;
  change.conn = ConnectionId(0);
  change.rid = RequestId(7);
  // First report: recorded, not yet expelled.
  change.reporter = server->elements[0].smiop_node;
  GmCommandResult r1 = run(GmCommand(change), server->elements[0].gm_client_node);
  EXPECT_TRUE(r1.accepted);
  EXPECT_FALSE(gm_->is_expelled(DomainId(10), accused));
  // Second distinct reporter reaches f+1 = 2.
  change.reporter = server->elements[1].smiop_node;
  GmCommandResult r2 = run(GmCommand(change), server->elements[1].gm_client_node);
  EXPECT_TRUE(r2.accepted);
  EXPECT_TRUE(gm_->is_expelled(DomainId(10), accused));
}

TEST_F(GmStateMachineTest, DomainReporterIdentityChecked) {
  const DomainInfo* server = directory_->find_domain(DomainId(10));
  ChangeRequestMsg change;
  change.reporter_domain = DomainId(10);
  change.reporter = server->elements[0].smiop_node;
  change.accused_domain = DomainId(10);
  change.accused_element = server->elements[3].smiop_node;
  // Submitted from the WRONG BFT client node: identity mismatch.
  const GmCommandResult result = run(GmCommand(change), NodeId(31337));
  EXPECT_FALSE(result.accepted);
}

TEST_F(GmStateMachineTest, SameReporterCannotFormQuorumAlone) {
  const DomainInfo* server = directory_->find_domain(DomainId(10));
  const NodeId accused = server->elements[3].smiop_node;
  ChangeRequestMsg change;
  change.reporter_domain = DomainId(10);
  change.reporter = server->elements[0].smiop_node;
  change.accused_domain = DomainId(10);
  change.accused_element = accused;
  change.conn = ConnectionId(0);
  change.rid = RequestId(7);
  for (int i = 0; i < 3; ++i) {
    (void)run(GmCommand(change), server->elements[0].gm_client_node);
  }
  EXPECT_FALSE(gm_->is_expelled(DomainId(10), accused));
}

TEST_F(GmStateMachineTest, ExpulsionIsIdempotent) {
  const GmCommandResult open = open_singleton();
  const NodeId accused = directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  (void)run(GmCommand(make_proof_change(open.conn, accused)));
  ASSERT_TRUE(gm_->is_expelled(DomainId(10), accused));
  distributor_.calls.clear();
  const GmCommandResult again = run(GmCommand(make_proof_change(open.conn, accused)));
  EXPECT_TRUE(again.accepted);  // idempotent acknowledgement
  EXPECT_TRUE(distributor_.calls.empty());  // but no second rekey
}

TEST_F(GmStateMachineTest, ResendToEntitledParty) {
  const GmCommandResult open = open_singleton();
  distributor_.calls.clear();
  ResendSharesMsg resend;
  resend.conn = open.conn;
  resend.requester = NodeId(9000);
  const GmCommandResult result = run(GmCommand(resend));
  ASSERT_TRUE(result.accepted);
  ASSERT_EQ(distributor_.calls.size(), 1u);
  EXPECT_EQ(distributor_.calls[0].recipients, std::vector<NodeId>{NodeId(9000)});
}

TEST_F(GmStateMachineTest, ResendRefusedForStranger) {
  const GmCommandResult open = open_singleton();
  ResendSharesMsg resend;
  resend.conn = open.conn;
  resend.requester = NodeId(31337);
  EXPECT_FALSE(run(GmCommand(resend)).accepted);
}

TEST_F(GmStateMachineTest, ResendRefusedForExpelledElement) {
  const GmCommandResult open = open_singleton();
  const NodeId accused = directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  (void)run(GmCommand(make_proof_change(open.conn, accused)));
  distributor_.calls.clear();
  ResendSharesMsg resend;
  resend.conn = open.conn;
  resend.requester = accused;
  EXPECT_FALSE(run(GmCommand(resend)).accepted);
  EXPECT_TRUE(distributor_.calls.empty());
}

TEST_F(GmStateMachineTest, ResendUnknownConnRejected) {
  ResendSharesMsg resend;
  resend.conn = ConnectionId(404);
  resend.requester = NodeId(9000);
  EXPECT_FALSE(run(GmCommand(resend)).accepted);
}

TEST_F(GmStateMachineTest, SnapshotRestoreRoundTrip) {
  const GmCommandResult open = open_singleton();
  const NodeId accused = directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  (void)run(GmCommand(make_proof_change(open.conn, accused)));
  const bft::AppSnapshot snap = gm_->snapshot();

  GmStateMachine restored(directory_, keystore_, nullptr);
  ASSERT_TRUE(restored.restore(snap).is_ok());
  EXPECT_TRUE(restored.is_expelled(DomainId(10), accused));
  EXPECT_EQ(restored.connections().size(), 1u);
  EXPECT_EQ(restored.connections().begin()->second.epoch, KeyEpoch(2));
  EXPECT_EQ(restored.snapshot(), snap);
}

TEST_F(GmStateMachineTest, DeterministicAcrossInstances) {
  // Two GM elements applying the same ordered commands reach byte-identical
  // state (the BFT checkpoint requirement).
  FakeDistributor d2;
  GmStateMachine gm2(directory_, keystore_, &d2);
  const GmCommand open = GmCommand([&] {
    OpenRequestMsg msg;
    msg.client_node = NodeId(9000);
    msg.target = DomainId(10);
    return msg;
  }());
  const Bytes r1 = bft::execute_with_digest(*gm_, encode_gm_command(open), NodeId(9000), SeqNum(1));
  const Bytes r2 = bft::execute_with_digest(gm2, encode_gm_command(open), NodeId(9000), SeqNum(1));
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(gm_->snapshot(), gm2.snapshot());
}

TEST_F(GmStateMachineTest, ExpulsionRekeysConnectionsWhereDomainIsClient) {
  // §3.5: an expelled element is keyed out of ALL communication groups it is
  // part of — including connections where its domain is the CLIENT side.
  DomainInfo caller;
  caller.id = DomainId(20);
  caller.f = 1;
  caller.group = McastGroupId(20);
  for (int i = 0; i < 4; ++i) caller.elements.push_back(element_info(700 + i * 10));
  auto directory =
      std::make_shared<SystemDirectory>(directory_->gm(), ProtocolTiming{});
  directory->add_domain(*directory_->find_domain(DomainId(10)));
  directory->add_domain(caller);
  FakeDistributor distributor;
  GmStateMachine gm(directory, keystore_, &distributor);

  // Open a connection with domain 20 as the (replicated) client of 10.
  OpenRequestMsg open;
  open.client_node = caller.elements[0].smiop_node;
  open.client_domain = DomainId(20);
  open.target = DomainId(10);
  const Bytes reply = bft::execute_with_digest(gm, encode_gm_command(GmCommand(open)),
                                               caller.elements[0].gm_client_node, SeqNum(1));
  const auto open_result = GmCommandResult::decode(reply);
  ASSERT_TRUE(open_result.is_ok() && open_result.value().accepted);
  distributor.calls.clear();

  // Expel an element OF THE CALLER DOMAIN via its own domain's quorum.
  const NodeId accused = caller.elements[2].smiop_node;
  for (int reporter = 0; reporter < 2; ++reporter) {
    ChangeRequestMsg change;
    change.reporter = caller.elements[reporter].smiop_node;
    change.reporter_domain = DomainId(20);
    change.accused_domain = DomainId(20);
    change.accused_element = accused;
    change.conn = ConnectionId(0);
    change.rid = RequestId(3);
    (void)bft::execute_with_digest(gm, encode_gm_command(GmCommand(change)),
                                   caller.elements[reporter].gm_client_node,
                                   SeqNum(static_cast<std::uint64_t>(10 + reporter)));
  }
  ASSERT_TRUE(gm.is_expelled(DomainId(20), accused));
  // The client-side connection was rekeyed, excluding the expelled element.
  ASSERT_EQ(distributor.calls.size(), 1u);
  EXPECT_EQ(distributor.calls[0].record.epoch, KeyEpoch(2));
  const auto& recipients = distributor.calls[0].recipients;
  EXPECT_EQ(std::count(recipients.begin(), recipients.end(), accused), 0);
  // Recipients: 4 target elements + 3 remaining caller elements.
  EXPECT_EQ(recipients.size(), 7u);
}

TEST_F(GmStateMachineTest, ProofVoteUsesAccusedDomainsPolicy) {
  // An inexact-policy domain: a reply differing by platform jitter is NOT
  // faulty, and a proof accusing it must be rejected.
  DomainInfo inexact_server = *directory_->find_domain(DomainId(10));
  inexact_server.id = DomainId(30);
  inexact_server.group = McastGroupId(30);
  inexact_server.vote_policy = VotePolicy::inexact(1e-6);
  for (auto& e : inexact_server.elements) {
    e.smiop_node = NodeId(e.smiop_node.value + 1000);
  }
  auto directory =
      std::make_shared<SystemDirectory>(directory_->gm(), ProtocolTiming{});
  directory->add_domain(inexact_server);
  GmStateMachine gm(directory, keystore_, nullptr);
  OpenRequestMsg open;
  open.client_node = NodeId(9000);
  open.target = DomainId(30);
  (void)bft::execute_with_digest(gm, encode_gm_command(GmCommand(open)), NodeId(9000), SeqNum(1));

  ChangeRequestMsg change;
  change.reporter = NodeId(9000);
  change.reporter_domain = DomainId(0);
  change.accused_domain = DomainId(30);
  change.accused_element = inexact_server.elements[1].smiop_node;
  change.conn = ConnectionId(1);
  change.rid = RequestId(1);
  Rng rng(6);
  for (int i = 0; i < 3; ++i) {
    const NodeId element = inexact_server.elements[i].smiop_node;
    cdr::ReplyMessage reply;
    reply.request_id = RequestId(1);
    // Jitter within the domain's epsilon: equivalent, not faulty.
    reply.result = cdr::Value::float64(3.14 + i * 1e-9);
    ProofEntry entry;
    entry.element = element;
    entry.epoch = KeyEpoch(1);
    entry.plain_giop = cdr::encode_giop(cdr::GiopMessage(reply));
    const crypto::SigningKey key = keystore_->issue(element, rng);
    entry.signature = key.sign(DirectReplyMsg::signed_region(
        change.conn, change.rid, element, KeyEpoch(1),
        crypto::sha256(ByteView(entry.plain_giop))));
    change.proof.push_back(std::move(entry));
  }
  const Bytes reply = bft::execute_with_digest(gm, encode_gm_command(GmCommand(change)),
                                               NodeId(9000), SeqNum(5));
  const auto result = GmCommandResult::decode(reply);
  ASSERT_TRUE(result.is_ok());
  EXPECT_FALSE(result.value().accepted);  // jitter is not a fault here
  EXPECT_FALSE(gm.is_expelled(DomainId(30), change.accused_element));
}

// ---------------------------------------------------------------------------
// Membership updates (recovery subsystem, DESIGN.md §6d)
// ---------------------------------------------------------------------------

class MembershipUpdateTest : public GmStateMachineTest {
 protected:
  /// A valid update replacing `rank` of domain 10 with a fresh identity.
  MembershipUpdateMsg make_update(std::uint32_t rank,
                                  std::uint64_t expected_epoch = 0,
                                  std::uint64_t fresh_base = 900) {
    const DomainInfo* server = directory_->find_domain(DomainId(10));
    MembershipUpdateMsg msg;
    msg.domain = DomainId(10);
    msg.rank = rank;
    // Out-of-range ranks (RankOutOfRangeRejected) must not index the
    // fixture's element table; the GM rejects them before looking at
    // the retired identity anyway.
    msg.retired_element = rank < server->elements.size()
                              ? server->elements[rank].smiop_node
                              : NodeId(0);
    msg.admitted_element = NodeId(fresh_base + 1);
    msg.admitted_gm_client = NodeId(fresh_base + 2);
    msg.admitted_self_client = NodeId(fresh_base + 3);
    msg.expected_epoch = expected_epoch;
    return msg;
  }
};

TEST_F(MembershipUpdateTest, AdmitsReplacementRetiresOldAndRekeys) {
  (void)open_singleton();
  distributor_.calls.clear();
  const MembershipUpdateMsg update = make_update(1);
  const GmCommandResult result = run(GmCommand(update), NodeId(8000));
  ASSERT_TRUE(result.accepted) << result.detail;

  EXPECT_EQ(gm_->membership_epoch(DomainId(10)), 1u);
  EXPECT_EQ(gm_->membership_generation(), 1u);
  // The old identity is keyed out like an expelled one, but retirement
  // spends none of the intrusion budget.
  EXPECT_TRUE(gm_->is_expelled(DomainId(10), update.retired_element));
  EXPECT_EQ(gm_->expulsions(), 0u);
  const MembershipView* view = gm_->membership_view(DomainId(10));
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->members[1].smiop, update.admitted_element);

  // Admission rekeyed the domain's connection: the fresh identity receives
  // shares, the retired one does not.
  ASSERT_EQ(distributor_.calls.size(), 1u);
  EXPECT_EQ(distributor_.calls[0].record.epoch, KeyEpoch(2));
  const auto& recipients = distributor_.calls[0].recipients;
  EXPECT_EQ(std::count(recipients.begin(), recipients.end(),
                       update.retired_element), 0);
  EXPECT_EQ(std::count(recipients.begin(), recipients.end(),
                       update.admitted_element), 1);
}

TEST_F(MembershipUpdateTest, RejectsNonAuthoritySubmitter) {
  const GmCommandResult result = run(GmCommand(make_update(1)), NodeId(31337));
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(gm_->membership_epoch(DomainId(10)), 0u);
}

TEST_F(MembershipUpdateTest, EpochCasMismatchRejected) {
  const GmCommandResult result =
      run(GmCommand(make_update(1, /*expected_epoch=*/5)), NodeId(8000));
  EXPECT_FALSE(result.accepted);
  EXPECT_EQ(gm_->membership_epoch(DomainId(10)), 0u);
}

TEST_F(MembershipUpdateTest, ReAcceptIsIdempotentWithoutSecondRekey) {
  (void)open_singleton();
  const MembershipUpdateMsg update = make_update(1);
  ASSERT_TRUE(run(GmCommand(update), NodeId(8000)).accepted);
  distributor_.calls.clear();
  // A retried submission of the SAME update (stale expected_epoch, same
  // admitted identity) is acknowledged without state change.
  const GmCommandResult again = run(GmCommand(update), NodeId(8000));
  EXPECT_TRUE(again.accepted);
  EXPECT_EQ(gm_->membership_epoch(DomainId(10)), 1u);
  EXPECT_TRUE(distributor_.calls.empty());
}

TEST_F(MembershipUpdateTest, ExpelledIdentityCannotBeReadmitted) {
  const GmCommandResult open = open_singleton();
  const NodeId expelled =
      directory_->find_domain(DomainId(10))->elements[1].smiop_node;
  ASSERT_TRUE(run(GmCommand(make_proof_change(open.conn, expelled))).accepted);

  MembershipUpdateMsg update = make_update(2);
  update.admitted_element = expelled;  // the compromised identity sneaks back
  const GmCommandResult result = run(GmCommand(update), NodeId(8000));
  EXPECT_FALSE(result.accepted);
  const MembershipView* view = gm_->membership_view(DomainId(10));
  ASSERT_NE(view, nullptr);
  EXPECT_NE(view->members[2].smiop, expelled);
}

TEST_F(MembershipUpdateTest, CurrentMemberCannotBeAdmittedTwice) {
  MembershipUpdateMsg update = make_update(1);
  update.admitted_element =
      directory_->find_domain(DomainId(10))->elements[0].smiop_node;
  EXPECT_FALSE(run(GmCommand(update), NodeId(8000)).accepted);
}

TEST_F(MembershipUpdateTest, RetiredIdentityMustHoldTheSlot) {
  MembershipUpdateMsg update = make_update(1);
  update.retired_element = NodeId(424242);
  EXPECT_FALSE(run(GmCommand(update), NodeId(8000)).accepted);
}

TEST_F(MembershipUpdateTest, RankOutOfRangeRejected) {
  EXPECT_FALSE(run(GmCommand(make_update(9)), NodeId(8000)).accepted);
}

TEST_F(MembershipUpdateTest, RetiredIdentityGetsNoResends) {
  const GmCommandResult open = open_singleton();
  const MembershipUpdateMsg update = make_update(1);
  ASSERT_TRUE(run(GmCommand(update), NodeId(8000)).accepted);
  distributor_.calls.clear();
  ResendSharesMsg resend;
  resend.conn = open.conn;
  resend.requester = update.retired_element;
  EXPECT_FALSE(run(GmCommand(resend)).accepted);
  EXPECT_TRUE(distributor_.calls.empty());
}

TEST_F(MembershipUpdateTest, ResendServesEveryRetainedEpochToTheAdmitted) {
  // A fresh replacement may still hold queue entries sealed under
  // pre-admission epochs; resend must re-serve ALL retained epochs so it can
  // drain them instead of diverging.
  const GmCommandResult open = open_singleton();
  ASSERT_TRUE(run(GmCommand(make_update(1)), NodeId(8000)).accepted);
  distributor_.calls.clear();
  ResendSharesMsg resend;
  resend.conn = open.conn;
  resend.requester = make_update(1).admitted_element;
  ASSERT_TRUE(run(GmCommand(resend)).accepted);
  ASSERT_EQ(distributor_.calls.size(), 2u);  // epochs 1 and 2, oldest first
  EXPECT_EQ(distributor_.calls[0].record.epoch, KeyEpoch(1));
  EXPECT_EQ(distributor_.calls[1].record.epoch, KeyEpoch(2));
}

TEST_F(MembershipUpdateTest, SnapshotRoundTripCarriesViewsAndEpochHistory) {
  (void)open_singleton();
  ASSERT_TRUE(run(GmCommand(make_update(1)), NodeId(8000)).accepted);
  const bft::AppSnapshot snap = gm_->snapshot();

  GmStateMachine restored(directory_, keystore_, nullptr);
  ASSERT_TRUE(restored.restore(snap).is_ok());
  EXPECT_EQ(restored.membership_epoch(DomainId(10)), 1u);
  EXPECT_EQ(restored.membership_generation(), 1u);
  EXPECT_TRUE(restored.is_expelled(DomainId(10), make_update(1).retired_element));
  EXPECT_EQ(restored.snapshot(), snap);
}

// ---------------------------------------------------------------------------
// KeyAgent
// ---------------------------------------------------------------------------

class KeyAgentTest : public GmStateMachineTest {
 protected:
  KeyAgentTest() {
    Rng rng(77);
    dprf_keys_ = crypto::dprf_deal(directory_->dprf_params(), rng);
    session_keys_ = std::make_unique<bft::SessionKeys>(Rng(3).next_bytes(32));
  }

  KeyShareMsg make_share(int gm_index, const ConnRecord& record, NodeId recipient,
                         bool corrupt = false) {
    crypto::DprfElement element(directory_->dprf_params(), dprf_keys_[gm_index]);
    crypto::DprfShare share = element.evaluate(dprf_input(record.conn, record.epoch));
    if (corrupt) {
      for (auto& [id, digest] : share.evaluations) digest[0] ^= 0xff;
    }
    KeyShareMsg msg;
    msg.conn = record.conn;
    msg.epoch = record.epoch;
    msg.target_domain = record.target;
    msg.client_node = record.client_node;
    msg.client_domain = record.client_domain;
    msg.gm_index = static_cast<std::uint32_t>(gm_index);
    const NodeId gm_node = directory_->gm().elements[gm_index].smiop_node;
    const auto channel = crypto::SymmetricKey::from_bytes(
        session_keys_->key_for(gm_node, recipient));
    msg.sealed_share = crypto::seal(channel, crypto::make_nonce(gm_node.value, nonce_++),
                                    msg.framing_aad(), share.encode());
    return msg;
  }

  ConnRecord record() const {
    ConnRecord r;
    r.conn = ConnectionId(1);
    r.client_node = NodeId(9000);
    r.client_domain = DomainId(0);
    r.target = DomainId(10);
    r.epoch = KeyEpoch(1);
    return r;
  }

  std::vector<crypto::DprfElementKeys> dprf_keys_;
  std::unique_ptr<bft::SessionKeys> session_keys_;
  std::uint64_t nonce_ = 1;
};

TEST_F(KeyAgentTest, CombinesAfterQuorumOfShares) {
  KeyAgent agent(directory_, *session_keys_, NodeId(9000));
  std::optional<crypto::SymmetricKey> key;
  agent.set_key_ready([&](const ConnRecord& r, const crypto::SymmetricKey& k,
                          const std::vector<int>&) {
    EXPECT_EQ(r.conn, ConnectionId(1));
    key = k;
  });
  for (int i = 0; i < 3 && !key; ++i) {
    ASSERT_TRUE(agent.handle_share(make_share(i, record(), NodeId(9000))).is_ok());
  }
  ASSERT_TRUE(key.has_value());
  // Matches the master evaluation.
  EXPECT_EQ(*key, crypto::dprf_eval_master(directory_->dprf_params(), dprf_keys_,
                                           dprf_input(ConnectionId(1), KeyEpoch(1))));
}

TEST_F(KeyAgentTest, RejectsShareSealedForSomeoneElse) {
  KeyAgent agent(directory_, *session_keys_, NodeId(9000));
  const KeyShareMsg stolen = make_share(0, record(), NodeId(4242));
  EXPECT_EQ(agent.handle_share(stolen).code(), Errc::kAuthFailure);
  EXPECT_EQ(agent.shares_rejected(), 1u);
}

TEST_F(KeyAgentTest, RejectsOutOfRangeGmIndex) {
  KeyAgent agent(directory_, *session_keys_, NodeId(9000));
  KeyShareMsg msg = make_share(0, record(), NodeId(9000));
  msg.gm_index = 99;
  EXPECT_EQ(agent.handle_share(msg).code(), Errc::kMalformedMessage);
}

TEST_F(KeyAgentTest, CorruptShareFlaggedButKeyStillCorrect) {
  KeyAgent agent(directory_, *session_keys_, NodeId(9000));
  std::optional<crypto::SymmetricKey> key;
  std::vector<int> misbehaving;
  agent.set_key_ready([&](const ConnRecord&, const crypto::SymmetricKey& k,
                          const std::vector<int>& bad) {
    key = k;
    misbehaving = bad;
  });
  ASSERT_TRUE(agent.handle_share(make_share(0, record(), NodeId(9000), true)).is_ok());
  for (int i = 1; i < 4 && !key; ++i) {
    ASSERT_TRUE(agent.handle_share(make_share(i, record(), NodeId(9000))).is_ok());
  }
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ(*key, crypto::dprf_eval_master(directory_->dprf_params(), dprf_keys_,
                                           dprf_input(ConnectionId(1), KeyEpoch(1))));
  EXPECT_EQ(misbehaving, std::vector<int>{0});
}

TEST_F(KeyAgentTest, EpochsCombineIndependently) {
  KeyAgent agent(directory_, *session_keys_, NodeId(9000));
  std::map<std::uint64_t, crypto::SymmetricKey> keys;
  agent.set_key_ready([&](const ConnRecord& r, const crypto::SymmetricKey& k,
                          const std::vector<int>&) { keys[r.epoch.value] = k; });
  ConnRecord epoch1 = record();
  ConnRecord epoch2 = record();
  epoch2.epoch = KeyEpoch(2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(agent.handle_share(make_share(i, epoch1, NodeId(9000))).is_ok());
    ASSERT_TRUE(agent.handle_share(make_share(i, epoch2, NodeId(9000))).is_ok());
  }
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_NE(keys[1], keys[2]);  // rekey produces a fresh key
}

}  // namespace
}  // namespace itdos::core
