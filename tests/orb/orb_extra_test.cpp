// Additional ORB coverage: connection invalidation/reconnect, servant
// persistence defaults, Orb statistics, dispatch edge cases.
#include <gtest/gtest.h>

#include "orb/iiop.hpp"
#include "orb/orb.hpp"

namespace itdos::orb {
namespace {

class EchoServant : public Servant {
 public:
  std::string interface_name() const override { return "IDL:x/Echo:1.0"; }
  void dispatch(const std::string& operation, const cdr::Value& arguments,
                ServerContext&, ReplySinkPtr sink) override {
    if (operation == "echo") {
      sink->reply(arguments);
    } else {
      sink->reply(error(Errc::kInternal, "BAD_OPERATION"));
    }
  }
};

class PersistentEcho : public EchoServant {
 public:
  Result<Bytes> save_state() const override { return to_bytes("state"); }
  Status load_state(ByteView) override { return Status::ok(); }
};

TEST(ServantPersistenceTest, DefaultsRefuse) {
  EchoServant plain;
  EXPECT_EQ(plain.save_state().status().code(), Errc::kFailedPrecondition);
  EXPECT_EQ(plain.load_state(to_bytes("x")).code(), Errc::kFailedPrecondition);
  PersistentEcho persistent;
  EXPECT_TRUE(persistent.save_state().is_ok());
  EXPECT_TRUE(persistent.load_state(to_bytes("state")).is_ok());
}

class OrbReconnectFixture : public ::testing::Test {
 protected:
  OrbReconnectFixture() : net_(sim_, net::NetConfig{micros(10), micros(20), 0, 0}) {
    server_orb_ = std::make_unique<Orb>(
        DomainId(1), std::make_unique<IiopProtocol>(net_, NodeId(11), IiopDirectory{}),
        sim_.telemetry().metrics(), NodeId(11));
    server_ = std::make_unique<IiopServer>(net_, NodeId(1), *server_orb_);
    ref_ = server_orb_->adapter().activate(std::make_shared<EchoServant>());
    client_ = std::make_unique<Orb>(
        DomainId(100),
        std::make_unique<IiopProtocol>(net_, NodeId(2), IiopDirectory{{DomainId(1), NodeId(1)}},
                                       /*request_timeout_ns=*/millis(50)),
        sim_.telemetry().metrics(), NodeId(2));
  }

  Result<cdr::Value> invoke(const std::string& op) {
    std::optional<Result<cdr::Value>> outcome;
    client_->invoke(ref_, op, cdr::Value::sequence({cdr::Value::int64(1)}),
                    [&](Result<cdr::Value> r) { outcome = std::move(r); });
    sim_.run(100000);
    if (!outcome) return error(Errc::kUnavailable, "no completion");
    return std::move(*outcome);
  }

  /// A counter of the ORB invoking from `node`.
  std::uint64_t orb_count(NodeId node, std::string_view name) const {
    return sim_.telemetry().metrics().counter_value(telemetry::metric_name("orb", node, name));
  }

  net::Simulator sim_{3};
  net::Network net_;
  std::unique_ptr<Orb> server_orb_;
  std::unique_ptr<IiopServer> server_;
  ObjectRef ref_;
  std::unique_ptr<Orb> client_;
};

TEST_F(OrbReconnectFixture, InvalidateForcesReconnect) {
  ASSERT_TRUE(invoke("echo").is_ok());
  EXPECT_EQ(orb_count(NodeId(2), "connections_established"), 1u);
  client_->invalidate_connection(ref_.domain);
  ASSERT_TRUE(invoke("echo").is_ok());
  EXPECT_EQ(orb_count(NodeId(2), "connections_established"), 2u);
}

TEST_F(OrbReconnectFixture, InvalidateUnknownDomainIsNoop) {
  client_->invalidate_connection(DomainId(404));
  ASSERT_TRUE(invoke("echo").is_ok());
}

TEST_F(OrbReconnectFixture, StatsTrackOutcomes) {
  ASSERT_TRUE(invoke("echo").is_ok());
  ASSERT_FALSE(invoke("nonsense").is_ok());  // system exception
  EXPECT_EQ(orb_count(NodeId(2), "requests_sent"), 2u);
  EXPECT_EQ(orb_count(NodeId(2), "replies_ok"), 1u);
  EXPECT_EQ(orb_count(NodeId(2), "replies_exception"), 1u);
}

TEST_F(OrbReconnectFixture, TimeoutCountsAsTransportError) {
  server_.reset();  // server gone; IIOP request times out
  ASSERT_FALSE(invoke("echo").is_ok());
  EXPECT_EQ(orb_count(NodeId(2), "transport_errors"), 1u);
}

TEST_F(OrbReconnectFixture, QueuedInvokesFailFastOnConnectError) {
  Orb lost(DomainId(101), std::make_unique<IiopProtocol>(net_, NodeId(3), IiopDirectory{}),
           sim_.telemetry().metrics(), NodeId(3));
  int failures = 0;
  for (int i = 0; i < 3; ++i) {
    lost.invoke(ref_, "echo", cdr::Value::sequence({}), [&](Result<cdr::Value> r) {
      EXPECT_EQ(r.status().code(), Errc::kNotFound);
      ++failures;
    });
  }
  sim_.run(10000);
  EXPECT_EQ(failures, 3);
  // The IIOP connect fails synchronously, so each invoke re-attempts (and
  // each caller gets a prompt failure instead of silently queueing).
  EXPECT_EQ(orb_count(NodeId(3), "connect_failures"), 3u);
}

TEST(ObjectRefTest, CorbalocRoundTrip) {
  ObjectRef ref;
  ref.domain = DomainId(12);
  ref.key = ObjectId(7);
  ref.interface_name = "IDL:bank/Ledger:1.0";
  const auto parsed = ObjectRef::from_string(ref.to_string());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), ref);
}

TEST(ObjectRefTest, CorbalocRejectsMalformed) {
  EXPECT_FALSE(ObjectRef::from_string("").is_ok());
  EXPECT_FALSE(ObjectRef::from_string("corbaloc:iiop:1/2#x").is_ok());
  EXPECT_FALSE(ObjectRef::from_string("corbaloc:itdos:12#x").is_ok());    // no '/'
  EXPECT_FALSE(ObjectRef::from_string("corbaloc:itdos:12/7").is_ok());    // no '#'
  EXPECT_FALSE(ObjectRef::from_string("corbaloc:itdos:ab/7#x").is_ok());  // bad num
  EXPECT_FALSE(ObjectRef::from_string("corbaloc:itdos:12/7#").is_ok());   // empty if
}

}  // namespace
}  // namespace itdos::orb
