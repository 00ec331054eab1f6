// Full-stack ITDOS integration tests: the scenarios of Figures 1 and 3 plus
// the paper's fault stories — heterogeneous voting, Byzantine elements,
// proof-based expulsion, rekeying, nested invocations, firewall proxies.
#include "itdos/system.hpp"

#include <gtest/gtest.h>

namespace itdos::core {
namespace {

using cdr::Value;

/// The calculator servant; implementation varies per rank to exercise
/// implementation diversity (same logical results, different code paths and
/// wire encodings).
class Calculator : public orb::Servant {
 public:
  explicit Calculator(int rank) : rank_(rank) {}

  std::string interface_name() const override { return "IDL:itdos/Calculator:1.0"; }

  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      const auto& elems = arguments.elements();
      std::int64_t sum = 0;
      if (rank_ % 2 == 0) {
        for (const Value& v : elems) sum += v.as_int64();
      } else {
        for (auto it = elems.rbegin(); it != elems.rend(); ++it) sum += it->as_int64();
      }
      sink->reply(Value::int64(sum));
    } else if (operation == "fail") {
      sink->reply(error(Errc::kInvalidArgument, "RequestedFailure"));
    } else {
      sink->reply(error(Errc::kInternal, "BAD_OPERATION"));
    }
  }

 private:
  int rank_;
};

Value int_args(std::initializer_list<std::int64_t> values) {
  std::vector<Value> elems;
  for (std::int64_t v : values) elems.push_back(Value::int64(v));
  return Value::sequence(std::move(elems));
}

class ItdosSystemTest : public ::testing::Test {
 protected:
  /// A `<layer>.<scope>.*` counter from the system's registry.
  template <typename Tag>
  static std::uint64_t count(ItdosSystem& system, std::string_view layer,
                             detail::StrongId<Tag> scope, std::string_view name) {
    return system.sim().telemetry().metrics().counter_value(
        telemetry::metric_name(layer, scope, name));
  }

  static SystemOptions fast_options(std::uint64_t seed = 1) {
    SystemOptions opts;
    opts.seed = seed;
    return opts;
  }

  DomainId add_calculator_domain(ItdosSystem& system, int f = 1) {
    return system.add_domain(f, VotePolicy::exact(),
                             [](orb::ObjectAdapter& adapter, int rank) {
                               auto ref = adapter.activate_with_key(
                                   ObjectId(1), std::make_shared<Calculator>(rank));
                               ASSERT_TRUE(ref.is_ok());
                             });
  }
};

TEST_F(ItdosSystemTest, EndToEndInvocation) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");

  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({40, 2}));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 42);
  EXPECT_EQ(count(system, "smiop", client.smiop_node(), "votes_decided"), 1u);
}

TEST_F(ItdosSystemTest, TimedOutInvokeSyncToleratesTheLateCompletion) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");

  // One nanosecond is far shorter than a round trip: the call gives up with
  // its request still in flight.
  const Result<Value> timed_out =
      system.invoke_sync(client, ref, "add", int_args({40, 2}), 1);
  ASSERT_FALSE(timed_out.is_ok());
  EXPECT_EQ(timed_out.status().code(), Errc::kUnavailable);

  // Draining delivers the late completion after invoke_sync has returned.
  system.settle();
  const Result<Value> next =
      system.invoke_sync(client, ref, "add", int_args({1, 2}));
  ASSERT_TRUE(next.is_ok()) << next.status().to_string();
  EXPECT_EQ(next.value().as_int64(), 3);
  EXPECT_EQ(count(system, "smiop", client.smiop_node(), "votes_decided"), 2u);
}

TEST_F(ItdosSystemTest, HeterogeneousElementsVoteDespiteDifferentWireBytes) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  // Confirm the deployment actually mixes byte orders.
  bool has_big = false;
  bool has_little = false;
  for (const ElementInfo& e : system.directory().find_domain(domain)->elements) {
    has_big |= (e.byte_order == cdr::ByteOrder::kBigEndian);
    has_little |= (e.byte_order == cdr::ByteOrder::kLittleEndian);
  }
  EXPECT_TRUE(has_big);
  EXPECT_TRUE(has_little);

  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({1, 2, 3}));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 6);
}

/// Servant whose float result carries per-implementation jitter in the low
/// bits — the §3.6 "inexact values" scenario where every element's reply
/// differs on the wire.
class JitteryScaler : public orb::Servant {
 public:
  explicit JitteryScaler(int rank) : rank_(rank) {}
  std::string interface_name() const override { return "IDL:itdos/Scaler:1.0"; }
  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation != "scale") {
      sink->reply(error(Errc::kInternal, "BAD_OPERATION"));
      return;
    }
    const double base = arguments.elements()[0].as_float64() * 2.0;
    sink->reply(Value::float64(base + rank_ * 1e-12));
  }

 private:
  int rank_;
};

TEST_F(ItdosSystemTest, ByteByByteVotingFailsUnderHeterogeneity) {
  // The §3.6 negative result: "Byte-by-byte voting does not work correctly
  // in the presence of heterogeneity or inexact values." Every element's
  // reply differs on the wire (byte order AND low-order float bits), so a
  // raw-byte voter never assembles f+1 identical replies...
  auto install = [](orb::ObjectAdapter& adapter, int rank) {
    auto ref =
        adapter.activate_with_key(ObjectId(1), std::make_shared<JitteryScaler>(rank));
    ASSERT_TRUE(ref.is_ok());
  };
  ItdosSystem system(fast_options());
  const DomainId domain = system.add_domain(1, VotePolicy::exact(), install);
  ClientOptions options;
  options.policy_override = VotePolicy::byte_by_byte();
  options.auto_report = false;  // dissent here is an artifact, not a fault
  ItdosClient& client = system.add_client(options);
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Scaler:1.0");
  const Result<Value> result =
      system.invoke_sync(client, ref, "scale", Value::sequence({Value::float64(21.0)}));
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(count(system, "smiop", client.smiop_node(), "votes_timed_out"), 1u);

  // ...while the ITDOS middleware voter (inexact, on unmarshalled data)
  // decides on exactly the same replies.
  ItdosSystem good_system(fast_options(3));
  const DomainId good_domain =
      good_system.add_domain(1, VotePolicy::inexact(1e-9), install);
  ItdosClient& good_client = good_system.add_client();
  const Result<Value> good = good_system.invoke_sync(
      good_client, good_system.object_ref(good_domain, ObjectId(1), "IDL:itdos/Scaler:1.0"),
      "scale", Value::sequence({Value::float64(21.0)}));
  ASSERT_TRUE(good.is_ok()) << good.status().to_string();
  EXPECT_NEAR(good.value().as_float64(), 42.0, 1e-9);
}

TEST_F(ItdosSystemTest, SequentialInvocationsReuseConnection) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  for (int i = 1; i <= 5; ++i) {
    const Result<Value> result =
        system.invoke_sync(client, ref, "add", int_args({i, i}));
    ASSERT_TRUE(result.is_ok()) << "i=" << i << ": " << result.status().to_string();
    EXPECT_EQ(result.value().as_int64(), 2 * i);
  }
  EXPECT_EQ(count(system, "orb", client.smiop_node(), "connections_established"), 1u);
  EXPECT_EQ(count(system, "smiop", client.smiop_node(), "opens_sent"), 1u);
}

TEST_F(ItdosSystemTest, QueueAcksRideInClientSlots) {
  // Every element orders a queue ack each ack_interval (8) consumed
  // entries: with four elements, half an ack per request. The acks ride in
  // the slots the client's requests start, so serial requests take about
  // one agreement slot each, not 1.5: only an ack whose hold passes before
  // the next request arrives takes a slot of its own.
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  constexpr int kRequests = 64;
  for (int i = 1; i <= kRequests; ++i) {
    ASSERT_TRUE(system.invoke_sync(client, ref, "add", int_args({i, i})).is_ok()) << i;
  }
  system.settle();
  std::uint64_t slots = 0;
  std::uint64_t acks = 0;
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    const ElementInfo& info = system.directory().find_domain(domain)->elements.at(rank);
    slots += count(system, "bft", info.bft_node, "pre_prepares_sent");
    acks += count(system, "element", info.smiop_node, "acks_sent");
  }
  EXPECT_EQ(acks, std::uint64_t{kRequests / 2});
  EXPECT_LE(slots * 10, std::uint64_t{kRequests} * 11);  // <= 1.1 per request
}

TEST_F(ItdosSystemTest, UserExceptionVotedAndPropagated) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  const Result<Value> result = system.invoke_sync(client, ref, "fail", int_args({}));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), Errc::kPermissionDenied);
  EXPECT_NE(result.status().detail().find("RequestedFailure"), std::string::npos);
}

TEST_F(ItdosSystemTest, ToleratesCrashedElement) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  system.crash_element(domain, 3);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({20, 22}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 42);
}

TEST_F(ItdosSystemTest, PrimaryCrashOutageIsOneViewChangeTimeout) {
  // The client's transport broadcasts the lost request one measured RTO
  // after sending it, not a fixed client_retry_ns (40 ms) later, so the
  // first voted reply after the crash waits on the backups' 60 ms
  // view-change timer and a few round trips only.
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(system.invoke_sync(client, ref, "add", int_args({i, i})).is_ok()) << i;
  }
  system.settle();

  system.crash_element(domain, 0);  // rank 0 leads view 0
  const SimTime crashed = system.sim().now();
  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({20, 22}), seconds(1));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 42);
  EXPECT_LT(system.sim().now() - crashed, millis(70));
  EXPECT_GE(system.element(domain, 1).replica().view().value, 1u);
}

TEST_F(ItdosSystemTest, ByzantineElementOutvotedDetectedAndExpelled) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  // Element 2 lies about every result (value corruption with valid crypto).
  system.element(domain, 2).set_reply_mutator([](cdr::ReplyMessage reply) {
    reply.result = Value::int64(666);
    return reply;
  });
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");

  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({40, 2}));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 42);  // voter masks the lie

  system.settle();
  EXPECT_GE(count(system, "smiop", client.smiop_node(), "faults_detected"), 1u);
  EXPECT_GE(count(system, "smiop", client.smiop_node(), "change_requests_sent"), 1u);
  // The GM verified the signed-message proof and expelled the liar.
  const NodeId liar = system.element(domain, 2).smiop_node();
  EXPECT_TRUE(system.gm_element(0).state().is_expelled(domain, liar));
  EXPECT_GE(system.gm_element(0).state().expulsions(), 1u);
}

TEST_F(ItdosSystemTest, RekeyAfterExpulsionKeysOutTheFaultyElement) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  system.element(domain, 2).set_reply_mutator([](cdr::ReplyMessage reply) {
    reply.result = Value::int64(666);
    return reply;
  });
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  ASSERT_TRUE(system.invoke_sync(client, ref, "add", int_args({1, 1})).is_ok());
  system.settle();

  // After the expulsion-triggered rekey, correct parties hold epoch 2...
  const ConnectionId conn =
      system.gm_element(0).state().connections().begin()->first;
  const ConnTable::Entry* client_entry = client.party().conn_table().find(conn);
  ASSERT_NE(client_entry, nullptr);
  EXPECT_GE(client_entry->record.epoch.value, 2u);
  const ConnTable::Entry* good_entry =
      system.element(domain, 0).party().conn_table().find(conn);
  ASSERT_NE(good_entry, nullptr);
  EXPECT_TRUE(good_entry->keys.contains(2));
  // ...while the expelled element never receives epoch 2.
  const ConnTable::Entry* liar_entry =
      system.element(domain, 2).party().conn_table().find(conn);
  ASSERT_NE(liar_entry, nullptr);
  EXPECT_FALSE(liar_entry->keys.contains(2));

  // And the system keeps serving with the remaining elements.
  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({2, 3}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 5);
}

TEST_F(ItdosSystemTest, TwoClientsIndependentKeys) {
  // §3.5: "a unique communication key for each pair of communicating client
  // and server replication domains."
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  ItdosClient& alice = system.add_client();
  ItdosClient& bob = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  ASSERT_TRUE(system.invoke_sync(alice, ref, "add", int_args({1, 1})).is_ok());
  ASSERT_TRUE(system.invoke_sync(bob, ref, "add", int_args({2, 2})).is_ok());
  // Two distinct connections exist at the GM.
  EXPECT_EQ(system.gm_element(0).state().connections().size(), 2u);
  const auto& conns = system.gm_element(0).state().connections();
  auto it = conns.begin();
  const ConnectionId conn_a = (it++)->first;
  const ConnectionId conn_b = it->first;
  const auto* key_a = alice.party().conn_table().key_for(conn_a, KeyEpoch(1));
  const auto* key_b = bob.party().conn_table().key_for(conn_b, KeyEpoch(1));
  ASSERT_NE(key_a, nullptr);
  ASSERT_NE(key_b, nullptr);
  EXPECT_NE(*key_a, *key_b);
  // Alice never received Bob's connection key.
  EXPECT_EQ(alice.party().conn_table().find(conn_b), nullptr);
}

TEST_F(ItdosSystemTest, NestedInvocationAcrossDomains) {
  // Domain A hosts a Forwarder whose servant invokes domain B's calculator
  // mid-upcall — the §3.1 nested-invocation scenario with a replicated
  // client (domain A) calling a replicated server (domain B).
  class Forwarder : public orb::Servant {
   public:
    explicit Forwarder(orb::ObjectRef target) : target_(std::move(target)) {}
    std::string interface_name() const override { return "IDL:itdos/Forwarder:1.0"; }
    void dispatch(const std::string& operation, const Value& arguments,
                  orb::ServerContext& context, orb::ReplySinkPtr sink) override {
      if (operation != "relay") {
        sink->reply(error(Errc::kInternal, "BAD_OPERATION"));
        return;
      }
      context.invoke_nested(target_, "add", arguments,
                            [sink](Result<Value> result) {
                              if (!result.is_ok()) {
                                sink->reply(result.status());
                                return;
                              }
                              sink->reply(Value::structure(
                                  {cdr::Field("relayed", Value::boolean(true)),
                                   cdr::Field("value", std::move(result).take())}));
                            });
    }

   private:
    orb::ObjectRef target_;
  };

  ItdosSystem system(fast_options());
  const DomainId calc_domain = add_calculator_domain(system);
  const orb::ObjectRef calc_ref =
      system.object_ref(calc_domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  const DomainId fwd_domain = system.add_domain(
      1, VotePolicy::exact(), [&](orb::ObjectAdapter& adapter, int) {
        auto ref = adapter.activate_with_key(ObjectId(1),
                                             std::make_shared<Forwarder>(calc_ref));
        ASSERT_TRUE(ref.is_ok());
      });

  ItdosClient& client = system.add_client();
  const orb::ObjectRef fwd_ref =
      system.object_ref(fwd_domain, ObjectId(1), "IDL:itdos/Forwarder:1.0");
  const Result<Value> result =
      system.invoke_sync(client, fwd_ref, "relay", int_args({30, 12}), seconds(20));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().field("relayed").value().as_boolean());
  EXPECT_EQ(result.value().field("value").value().as_int64(), 42);

  // The calculator domain saw a replicated caller: its elements voted on
  // the ordered request copies (decision at f+1 matching; later copies are
  // discarded via the request-id rule).
  system.settle();
  const NodeId calc0 = system.element(calc_domain, 0).smiop_node();
  EXPECT_GE(count(system, "element", calc0, "request_vote_copies"), 2u);
  EXPECT_GE(count(system, "element", calc0, "entries_discarded"), 1u);
}

TEST_F(ItdosSystemTest, FirewallBlocksGarbageButNotProtocol) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  system.protect_with_firewall(domain);

  // Attacker floods an element with junk from outside the enclave.
  const NodeId target = system.element(domain, 0).smiop_node();
  for (int i = 0; i < 50; ++i) {
    system.network().send(NodeId(99999), target, to_bytes("DDOS-GARBAGE-" + std::to_string(i)));
  }
  system.settle();
  EXPECT_EQ(count(system, "proxy", domain, "dropped_malformed"), 50u);

  // Legitimate traffic still flows.
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({40, 2}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GT(count(system, "proxy", domain, "admitted"), 0u);
}

TEST_F(ItdosSystemTest, ToleratesCrashedGmElement) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  system.crash_gm_element(3);  // one of 4 GM elements gone
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({40, 2}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
}

TEST_F(ItdosSystemTest, ToleratesByzantineGmShares) {
  // One GM element distributes corrupted key shares; the combiner's f+1
  // agreement rule derives the correct key anyway and flags the element.
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  system.gm_element(1).set_corrupt_shares(true);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({40, 2}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 42);
}

TEST_F(ItdosSystemTest, ToleratesWithholdingGmElement) {
  ItdosSystem system(fast_options());
  const DomainId domain = add_calculator_domain(system);
  system.gm_element(2).set_withhold_shares(true);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
  const Result<Value> result =
      system.invoke_sync(client, ref, "add", int_args({40, 2}), seconds(10));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
}

TEST_F(ItdosSystemTest, UnknownDomainRejectedByGm) {
  ItdosSystem system(fast_options());
  (void)add_calculator_domain(system);
  ItdosClient& client = system.add_client();
  const orb::ObjectRef bogus =
      system.object_ref(DomainId(999), ObjectId(1), "IDL:x:1.0");
  const Result<Value> result = system.invoke_sync(client, bogus, "add", int_args({}));
  EXPECT_FALSE(result.is_ok());
}

TEST_F(ItdosSystemTest, DeterministicAcrossSeeds) {
  auto run = [&](std::uint64_t seed) {
    ItdosSystem system(fast_options(seed));
    const DomainId domain = add_calculator_domain(system);
    ItdosClient& client = system.add_client();
    const orb::ObjectRef ref =
        system.object_ref(domain, ObjectId(1), "IDL:itdos/Calculator:1.0");
    std::string transcript;
    for (int i = 0; i < 3; ++i) {
      const Result<Value> r = system.invoke_sync(client, ref, "add", int_args({i, i}));
      transcript += r.is_ok() ? r.value().to_string() : r.status().to_string();
      transcript += ";";
    }
    transcript += std::to_string(system.sim().now().ns);
    return transcript;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST_F(ItdosSystemTest, InexactPolicyAcceptsFloatJitter) {
  // Heterogeneous float computation: each rank computes the mean with a
  // different accumulation order, producing slightly different doubles.
  class Averager : public orb::Servant {
   public:
    explicit Averager(int rank) : rank_(rank) {}
    std::string interface_name() const override { return "IDL:itdos/Averager:1.0"; }
    void dispatch(const std::string& operation, const Value& arguments,
                  orb::ServerContext&, orb::ReplySinkPtr sink) override {
      if (operation != "mean") {
        sink->reply(error(Errc::kInternal, "BAD_OPERATION"));
        return;
      }
      const auto& elems = arguments.elements();
      double sum = 0;
      if (rank_ % 2 == 0) {
        for (const Value& v : elems) sum += v.as_float64();
      } else {
        for (auto it = elems.rbegin(); it != elems.rend(); ++it) {
          sum += it->as_float64();
        }
      }
      // Inject representative platform jitter in the last bits.
      const double jitter = rank_ * 1e-13;
      sink->reply(Value::float64(sum / static_cast<double>(elems.size()) + jitter));
    }

   private:
    int rank_;
  };

  ItdosSystem system(fast_options());
  const DomainId domain = system.add_domain(
      1, VotePolicy::inexact(1e-9), [](orb::ObjectAdapter& adapter, int rank) {
        auto ref =
            adapter.activate_with_key(ObjectId(1), std::make_shared<Averager>(rank));
        ASSERT_TRUE(ref.is_ok());
      });
  ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:itdos/Averager:1.0");
  const Value samples = Value::sequence({Value::float64(0.1), Value::float64(0.2),
                                         Value::float64(0.3), Value::float64(0.4)});
  const Result<Value> result = system.invoke_sync(client, ref, "mean", samples);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_NEAR(result.value().as_float64(), 0.25, 1e-9);

  // With EXACT voting the same jitter wedges the vote.
  ItdosSystem exact_system(fast_options(7));
  const DomainId exact_domain = exact_system.add_domain(
      1, VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int rank) {
        auto ref =
            adapter.activate_with_key(ObjectId(1), std::make_shared<Averager>(rank));
        ASSERT_TRUE(ref.is_ok());
      });
  ClientOptions no_report;
  no_report.auto_report = false;
  ItdosClient& exact_client = exact_system.add_client(no_report);
  const orb::ObjectRef exact_ref =
      exact_system.object_ref(exact_domain, ObjectId(1), "IDL:itdos/Averager:1.0");
  const Result<Value> exact_result =
      exact_system.invoke_sync(exact_client, exact_ref, "mean", samples);
  EXPECT_FALSE(exact_result.is_ok());
}

}  // namespace
}  // namespace itdos::core
