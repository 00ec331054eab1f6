// Element replacement (§4 future work) and adaptive voting (§4, [32]) —
// the extension features beyond the paper's implemented core.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "itdos/smiop_msg.hpp"
#include "itdos/system.hpp"
#include "recovery/recovery_manager.hpp"

namespace itdos::core {
namespace {

using cdr::Value;

/// A counter servant WITH persistence (replacement-capable).
class PersistentCounter : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:itdos/PCounter:1.0"; }

  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      value_ += arguments.elements()[0].as_int64();
      sink->reply(Value::int64(value_));
    } else if (operation == "get") {
      sink->reply(Value::int64(value_));
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown op"));
    }
  }

  Result<Bytes> save_state() const override {
    cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
    enc.write_int64(value_);
    return enc.take();
  }

  Status load_state(ByteView state) override {
    cdr::Decoder dec(state, cdr::ByteOrder::kLittleEndian);
    ITDOS_ASSIGN_OR_RETURN(value_, dec.read_int64());
    return Status::ok();
  }

 private:
  std::int64_t value_ = 0;
};

/// A counter WITHOUT persistence (non-replaceable domain).
class VolatileCounter : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:itdos/PCounter:1.0"; }
  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      value_ += arguments.elements()[0].as_int64();
      sink->reply(Value::int64(value_));
    } else {
      sink->reply(Value::int64(value_));
    }
  }

 private:
  std::int64_t value_ = 0;
};

Value one_arg(std::int64_t v) { return Value::sequence({Value::int64(v)}); }

/// An `element.*` counter of `element`. A crash replacement keeps its
/// predecessor's identity, so the count spans both incarnations.
std::uint64_t element_count(ItdosSystem& system, const DomainElement& element,
                            std::string_view name) {
  return system.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("element", element.smiop_node(), name));
}

class ReplacementTest : public ::testing::Test {
 protected:
  static DomainId add_persistent_domain(ItdosSystem& system) {
    return system.add_domain(1, VotePolicy::exact(),
                             [](orb::ObjectAdapter& adapter, int) {
                               (void)adapter.activate_with_key(
                                   ObjectId(1), std::make_shared<PersistentCounter>());
                             });
  }
};

TEST_F(ReplacementTest, ReplacedElementRejoinsWithState) {
  ItdosSystem system;
  const DomainId domain = add_persistent_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/PCounter:1.0");

  // Build up state, then lose an element.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(system.invoke_sync(client, ref, "add", one_arg(10)).is_ok());
  }
  system.crash_element(domain, 1);
  ASSERT_TRUE(system.invoke_sync(client, ref, "add", one_arg(10), seconds(10)).is_ok());

  // Replace it: the new element bootstraps from its peers.
  DomainElement& fresh = system.replace_element(domain, 1);
  EXPECT_FALSE(fresh.replacement_complete());
  const std::uint64_t executed_before = element_count(system, fresh, "requests_executed");
  const std::uint64_t bundles_before = element_count(system, fresh, "bundles_received");

  // Traffic keeps flowing while the replacement syncs.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        system.invoke_sync(client, ref, "add", one_arg(10), seconds(10)).is_ok());
  }
  system.settle();
  EXPECT_TRUE(fresh.replacement_complete());

  // The replacement answers with the FULL state (including pre-crash adds):
  // its servant got peer state via certified bundles.
  const Result<Value> result =
      system.invoke_sync(client, ref, "get", Value::sequence({}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 100);
  // And it executes new requests like any other element.
  EXPECT_GT(element_count(system, fresh, "requests_executed"), executed_before);
  EXPECT_GE(element_count(system, fresh, "bundles_received"), bundles_before + 2);  // f+1 certified
}

TEST_F(ReplacementTest, CrashReplacementNeverReusesASealNonce) {
  // A crash replacement keeps its predecessor's SMIOP identity, the
  // connection's key epoch and its pairwise channel keys, so a nonce drawn
  // from a per-incarnation counter would restart where the predecessor's
  // began. Under AES-GCM a nonce that seals two different ciphertexts under
  // one key hands an eavesdropper the XOR of the two plaintexts and the
  // means to forge tags. Element 1 answers rids under (conn 1, epoch 1)
  // before its crash and after its replacement, and sends state bundles to
  // element 2's identity from both incarnations (element 2 is replaced
  // before and after element 1). A proactive rejuvenation then makes every
  // GM element distribute fresh key shares from refreshed DPRF sub-keys.
  //
  // Every sealed reply, state bundle and key share, by (kind, key, nonce):
  // a reply key is (conn, epoch); a bundle or share key is the unordered
  // pair of nodes whose channel key seals it.
  std::map<std::tuple<int, std::uint64_t, std::uint64_t, Bytes>, Bytes> ciphertexts;
  std::vector<std::string> reused;
  std::size_t replies = 0;
  std::size_t bundles = 0;
  std::size_t shares = 0;
  // GM elements draw share nonces from an in-memory counter. That is safe
  // only because a GM element never restarts under an old identity (the
  // system can crash a GM element but never replaces one): pin it by
  // requiring every (GM sender, nonce) to be fresh across all recipients.
  std::set<std::pair<std::uint64_t, Bytes>> share_nonces;
  std::size_t repeated_share_nonces = 0;
  const auto record = [&](int kind, std::uint64_t a, std::uint64_t b, ByteView sealed) {
    const Bytes nonce(sealed.begin(), sealed.begin() + crypto::kNonceSize);
    const Bytes ciphertext(sealed.begin() + crypto::kNonceSize,
                           sealed.end() - crypto::kMacTagSize);
    const auto [it, fresh] = ciphertexts.try_emplace({kind, a, b, nonce}, ciphertext);
    if (!fresh && it->second != ciphertext) reused.push_back(hex_encode(ByteView(nonce)));
  };
  const auto pair_of = [](const net::Packet& packet) {
    return std::pair(std::min(packet.from.value, packet.to.value),
                     std::max(packet.from.value, packet.to.value));
  };
  const auto watch = [&](const net::Packet& packet) {
    const Result<SmiopType> type = smiop_type(packet.payload.bytes());
    if (type.is_ok() && type.value() == SmiopType::kDirectReply) {
      if (const Result<DirectReplyMsg> msg = DirectReplyMsg::decode(packet.payload);
          msg.is_ok()) {
        ++replies;
        record(0, msg.value().conn.value, msg.value().epoch.value,
               msg.value().sealed_giop.bytes());
      }
    } else if (type.is_ok() && type.value() == SmiopType::kStateBundle) {
      if (const Result<StateBundleMsg> msg = StateBundleMsg::decode(packet.payload);
          msg.is_ok()) {
        ++bundles;
        const auto [a, b] = pair_of(packet);
        record(1, a, b, msg.value().sealed_bundle.bytes());
      }
    } else if (type.is_ok() && type.value() == SmiopType::kKeyShare) {
      if (const Result<KeyShareMsg> msg = KeyShareMsg::decode(packet.payload); msg.is_ok()) {
        ++shares;
        const ByteView sealed = msg.value().sealed_share.bytes();
        const auto [a, b] = pair_of(packet);
        record(2, a, b, sealed);
        const Bytes nonce(sealed.begin(), sealed.begin() + crypto::kNonceSize);
        if (!share_nonces.emplace(packet.from.value, nonce).second) ++repeated_share_nonces;
      }
    }
    return true;
  };

  ItdosSystem system;
  const DomainId domain = add_persistent_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/PCounter:1.0");
  system.network().set_inbound_filter(client.smiop_node(), watch);
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    system.network().set_inbound_filter(system.element(domain, rank).smiop_node(), watch);
  }
  std::int64_t expected = 0;
  const auto add_tens = [&](int count) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(
          system.invoke_sync(client, ref, "add", one_arg(10), seconds(10)).is_ok());
      expected += 10;
    }
  };
  const auto crash_and_replace = [&](int rank) {
    system.crash_element(domain, rank);
    add_tens(1);
    DomainElement& fresh = system.replace_element(domain, rank);
    add_tens(4);
    system.settle();
    ASSERT_TRUE(fresh.replacement_complete()) << "rank " << rank;
  };

  add_tens(5);
  crash_and_replace(2);
  crash_and_replace(1);
  crash_and_replace(2);
  const std::size_t shares_before_rejuvenation = shares;
  const auto gm_nodes = [&] {
    std::vector<NodeId> nodes;
    for (const ElementInfo& gm : system.directory().gm().elements) nodes.push_back(gm.smiop_node);
    return nodes;
  };
  const std::vector<NodeId> gm_before = gm_nodes();

  recovery::RecoveryManager manager(system);
  manager.recover_now(domain, 3);
  system.network().set_inbound_filter(system.element(domain, 3).smiop_node(), watch);
  system.settle();
  ASSERT_EQ(system.sim().telemetry().metrics().counter_value("recovery.completed"), 1u);
  add_tens(2);
  EXPECT_EQ(gm_nodes(), gm_before);
  for (const auto& [sender, nonce] : share_nonces) {
    EXPECT_TRUE(std::find(gm_before.begin(), gm_before.end(), NodeId(sender)) != gm_before.end())
        << "key share from non-GM node " << sender;
  }

  const Result<Value> result =
      system.invoke_sync(client, ref, "get", Value::sequence({}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), expected);
  EXPECT_GE(replies, 60u);
  EXPECT_GE(bundles, 9u);  // three replacements, three peers each
  EXPECT_GT(shares_before_rejuvenation, 0u);
  EXPECT_GT(shares, shares_before_rejuvenation);  // the rejuvenation rekeyed
  EXPECT_EQ(repeated_share_nonces, 0u);
  EXPECT_TRUE(reused.empty()) << reused.size() << " reused nonces, first: " << reused.front();
}

TEST_F(ReplacementTest, SlotCanBeCrashReplacedTwice) {
  // Each incarnation gets a fresh queue-management client endpoint. With
  // the predecessor's, the new BFT client would restart its timestamps at
  // 1, and the replicas would answer the sync point from their reply cache
  // (the predecessor's acks and first sync point used those timestamps)
  // instead of ordering it.
  ItdosSystem system;
  const DomainId domain = add_persistent_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/PCounter:1.0");
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 10; ++i) {  // past ack_interval: every element acks
      ASSERT_TRUE(
          system.invoke_sync(client, ref, "add", one_arg(1), seconds(10)).is_ok());
    }
    system.crash_element(domain, 1);
    DomainElement& fresh = system.replace_element(domain, 1);
    const std::uint64_t bundles_before = element_count(system, fresh, "bundles_received");
    ASSERT_TRUE(system.invoke_sync(client, ref, "add", one_arg(1), seconds(10)).is_ok());
    system.settle();
    ASSERT_TRUE(fresh.replacement_complete()) << "round " << round;
    EXPECT_GE(element_count(system, fresh, "bundles_received"), bundles_before + 2);
  }
  const Result<Value> result =
      system.invoke_sync(client, ref, "get", Value::sequence({}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 22);
}

TEST_F(ReplacementTest, ReplacementRestoresVotingStrength) {
  // With the replacement in place, the domain tolerates a NEW fault.
  ItdosSystem system;
  const DomainId domain = add_persistent_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/PCounter:1.0");
  ASSERT_TRUE(system.invoke_sync(client, ref, "add", one_arg(1)).is_ok());

  system.crash_element(domain, 0);  // the primary, even
  (void)system.replace_element(domain, 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        system.invoke_sync(client, ref, "add", one_arg(1), seconds(20)).is_ok());
  }
  system.settle();
  ASSERT_TRUE(system.element(domain, 0).replacement_complete());

  // Now crash a DIFFERENT element: still 3 of 4 healthy including the
  // replacement, so service continues.
  system.crash_element(domain, 2);
  const Result<Value> result =
      system.invoke_sync(client, ref, "add", one_arg(1), seconds(20));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 7);
}

TEST_F(ReplacementTest, NonPersistentDomainCannotReplace) {
  ItdosSystem system;
  const DomainId domain = system.add_domain(
      1, VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        (void)adapter.activate_with_key(ObjectId(1),
                                        std::make_shared<VolatileCounter>());
      });
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/PCounter:1.0");
  ASSERT_TRUE(system.invoke_sync(client, ref, "add", one_arg(1)).is_ok());

  system.crash_element(domain, 1);
  DomainElement& fresh = system.replace_element(domain, 1);
  ASSERT_TRUE(system.invoke_sync(client, ref, "add", one_arg(1), seconds(10)).is_ok());
  system.settle();
  // Peers cannot bundle state (no persistence), so the replacement never
  // completes — but the rest of the domain keeps serving.
  EXPECT_FALSE(fresh.replacement_complete());
  EXPECT_TRUE(system.invoke_sync(client, ref, "add", one_arg(1), seconds(10)).is_ok());
}

// ---------------------------------------------------------------------------
// Adaptive voting
// ---------------------------------------------------------------------------

Ballot float_ballot(std::uint64_t source, double v) {
  Ballot b;
  b.source = NodeId(source);
  const Value value = Value::float64(v);
  b.raw = value.encode(cdr::ByteOrder::kLittleEndian);
  b.value = value;
  return b;
}

TEST(AdaptiveVoteTest, DecidesAtBasePrecisionWhenTight) {
  Vote vote(1, VotePolicy::adaptive(1e-9, 1e-3));
  (void)vote.add(float_ballot(1, 1.0));
  const auto decision = vote.add(float_ballot(2, 1.0 + 1e-12));
  ASSERT_TRUE(decision.has_value());
  EXPECT_DOUBLE_EQ(decision->epsilon_used, 1e-9);
}

TEST(AdaptiveVoteTest, RelaxesWhenDispersedButDecidable) {
  // Replies dispersed beyond the base epsilon but within the ceiling: a
  // fixed-epsilon voter starves; the adaptive one relaxes once 2f+1 ballots
  // are in and decides.
  Vote fixed(1, VotePolicy::inexact(1e-9));
  Vote adaptive(1, VotePolicy::adaptive(1e-9, 1e-2));
  const double values[3] = {1.000, 1.0004, 1.0008};
  DecisionRef fixed_decision;
  DecisionRef adaptive_decision;
  for (int i = 0; i < 3; ++i) {
    if (!fixed_decision) fixed_decision = fixed.add(float_ballot(i + 1, values[i]));
    if (!adaptive_decision) {
      adaptive_decision = adaptive.add(float_ballot(i + 1, values[i]));
    }
  }
  EXPECT_FALSE(fixed_decision.has_value());
  ASSERT_TRUE(adaptive_decision.has_value());
  EXPECT_GT(adaptive_decision->epsilon_used, 1e-9);
  EXPECT_LE(adaptive_decision->epsilon_used, 1e-2);
  // No correct replica is flagged: at the deciding epsilon all agree.
  EXPECT_TRUE(adaptive_decision->dissenters.empty());
}

TEST(AdaptiveVoteTest, NeverRelaxesPastCeiling) {
  Vote vote(1, VotePolicy::adaptive(1e-9, 1e-6));
  (void)vote.add(float_ballot(1, 1.0));
  (void)vote.add(float_ballot(2, 2.0));  // truly divergent
  const auto decision = vote.add(float_ballot(3, 3.0));
  EXPECT_FALSE(decision.has_value());  // 1.0 vs 2.0 vs 3.0 >> 1e-6
}

TEST(AdaptiveVoteTest, DoesNotRelaxBeforeTwoFPlusOneBallots) {
  // With only f+1 ballots present, relaxing would let one faulty value and
  // one honest value "agree" — the 2f+1 gate prevents it.
  Vote vote(1, VotePolicy::adaptive(1e-9, 10.0));
  (void)vote.add(float_ballot(1, 1.0));
  const auto decision = vote.add(float_ballot(2, 1.5));  // only 2 ballots
  EXPECT_FALSE(decision.has_value());
}

TEST(AdaptiveVoteTest, FaultyValueStillOutvoted) {
  Vote vote(1, VotePolicy::adaptive(1e-9, 1e-2));
  (void)vote.add(float_ballot(1, 666.0));        // liar
  (void)vote.add(float_ballot(2, 1.0));
  const auto decision = vote.add(float_ballot(3, 1.0005));
  ASSERT_TRUE(decision.has_value());
  EXPECT_NEAR(decision->winner.value->as_float64(), 1.0, 0.001);
  ASSERT_EQ(decision->dissenters.size(), 1u);
  EXPECT_EQ(decision->dissenters[0], NodeId(1));
}

TEST(AdaptiveVoteTest, EndToEndWithJitteryDomain) {
  // Full stack: per-rank jitter too wide for the base epsilon; the adaptive
  // policy still serves the client.
  class WideJitterScaler : public orb::Servant {
   public:
    explicit WideJitterScaler(int rank) : rank_(rank) {}
    std::string interface_name() const override { return "IDL:itdos/WScaler:1.0"; }
    void dispatch(const std::string& operation, const Value& arguments,
                  orb::ServerContext&, orb::ReplySinkPtr sink) override {
      if (operation != "scale") {
        sink->reply(error(Errc::kInvalidArgument, "unknown op"));
        return;
      }
      sink->reply(Value::float64(arguments.elements()[0].as_float64() * 2.0 +
                                 rank_ * 1e-6));
    }

   private:
    int rank_;
  };
  ItdosSystem system;
  const DomainId domain = system.add_domain(
      1, VotePolicy::adaptive(1e-9, 1e-3), [](orb::ObjectAdapter& adapter, int rank) {
        (void)adapter.activate_with_key(ObjectId(1),
                                        std::make_shared<WideJitterScaler>(rank));
      });
  ClientOptions options;
  options.auto_report = false;  // jitter dissent is absorbed, not punished
  ItdosClient& client = system.add_client(options);
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/WScaler:1.0");
  const Result<Value> result = system.invoke_sync(
      client, ref, "scale", Value::sequence({Value::float64(21.0)}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_NEAR(result.value().as_float64(), 42.0, 1e-3);
}

}  // namespace
}  // namespace itdos::core
