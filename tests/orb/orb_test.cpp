// ORB unit + integration tests: adapter dispatch, connection reuse and
// request-id discipline, IIOP end-to-end, nested invocations, exceptions.
#include "orb/orb.hpp"

#include <gtest/gtest.h>

#include "orb/iiop.hpp"

namespace itdos::orb {
namespace {

/// Arithmetic servant used throughout.
class CalculatorServant : public Servant {
 public:
  std::string interface_name() const override { return "IDL:itdos/Calculator:1.0"; }

  void dispatch(const std::string& operation, const cdr::Value& arguments,
                ServerContext& context, ReplySinkPtr sink) override {
    (void)context;
    ++dispatches;
    if (operation == "add") {
      const auto& elems = arguments.elements();
      sink->reply(cdr::Value::int64(elems[0].as_int64() + elems[1].as_int64()));
    } else if (operation == "divide") {
      const auto& elems = arguments.elements();
      if (elems[1].as_int64() == 0) {
        sink->reply(error(Errc::kInvalidArgument, "DivideByZero"));
      } else {
        sink->reply(cdr::Value::int64(elems[0].as_int64() / elems[1].as_int64()));
      }
    } else {
      sink->reply(error(Errc::kInternal, "BAD_OPERATION"));
    }
  }

  int dispatches = 0;
};

/// A servant that invokes another object before replying (nested call).
class ForwarderServant : public Servant {
 public:
  explicit ForwarderServant(ObjectRef target) : target_(std::move(target)) {}

  std::string interface_name() const override { return "IDL:itdos/Forwarder:1.0"; }

  void dispatch(const std::string& operation, const cdr::Value& arguments,
                ServerContext& context, ReplySinkPtr sink) override {
    if (operation != "relay") {
      sink->reply(error(Errc::kInternal, "BAD_OPERATION"));
      return;
    }
    cdr::Value args = arguments;
    context.invoke_nested(target_, "add", std::move(args),
                          [sink](Result<cdr::Value> result) {
                            if (!result.is_ok()) {
                              sink->reply(result.status());
                              return;
                            }
                            // Mark that the value passed through the relay.
                            sink->reply(cdr::Value::structure(
                                {cdr::Field("relayed", cdr::Value::boolean(true)),
                                 cdr::Field("value", std::move(result).take())}));
                          });
  }

 private:
  ObjectRef target_;
};

class NullContext : public ServerContext {
 public:
  ConnectionId connection() const override { return ConnectionId(0); }
  void invoke_nested(const ObjectRef&, const std::string&, cdr::Value,
                     InvokeCompletion done) override {
    done(error(Errc::kUnavailable, "no nested invocations in this context"));
  }
};

cdr::Value int_pair(std::int64_t a, std::int64_t b) {
  return cdr::Value::sequence({cdr::Value::int64(a), cdr::Value::int64(b)});
}

TEST(ObjectAdapterTest, ActivateAssignsDistinctKeys) {
  ObjectAdapter adapter(DomainId(1));
  const ObjectRef r1 = adapter.activate(std::make_shared<CalculatorServant>());
  const ObjectRef r2 = adapter.activate(std::make_shared<CalculatorServant>());
  EXPECT_NE(r1.key, r2.key);
  EXPECT_EQ(r1.domain, DomainId(1));
  EXPECT_EQ(r1.interface_name, "IDL:itdos/Calculator:1.0");
  EXPECT_EQ(adapter.object_count(), 2u);
}

TEST(ObjectAdapterTest, ActivateWithExplicitKey) {
  ObjectAdapter adapter(DomainId(1));
  const auto ref = adapter.activate_with_key(ObjectId(7), std::make_shared<CalculatorServant>());
  ASSERT_TRUE(ref.is_ok());
  EXPECT_EQ(ref.value().key, ObjectId(7));
  EXPECT_EQ(adapter
                .activate_with_key(ObjectId(7), std::make_shared<CalculatorServant>())
                .status()
                .code(),
            Errc::kAlreadyExists);
}

TEST(ObjectAdapterTest, FindUnknownKey) {
  ObjectAdapter adapter(DomainId(1));
  EXPECT_EQ(adapter.find(ObjectId(99)).status().code(), Errc::kNotFound);
}

TEST(ObjectAdapterTest, DispatchSuccess) {
  ObjectAdapter adapter(DomainId(1));
  const ObjectRef ref = adapter.activate(std::make_shared<CalculatorServant>());
  cdr::RequestMessage request;
  request.request_id = RequestId(1);
  request.object_key = ref.key;
  request.operation = "add";
  request.interface_name = ref.interface_name;
  request.arguments = int_pair(20, 22);
  NullContext context;
  std::optional<cdr::ReplyMessage> reply;
  adapter.dispatch(request, context, [&](cdr::ReplyMessage r) { reply = std::move(r); });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, cdr::ReplyStatus::kNoException);
  EXPECT_EQ(reply->result.as_int64(), 42);
  EXPECT_EQ(reply->request_id, RequestId(1));
}

TEST(ObjectAdapterTest, DispatchUnknownObjectIsException) {
  ObjectAdapter adapter(DomainId(1));
  cdr::RequestMessage request;
  request.request_id = RequestId(5);
  request.object_key = ObjectId(404);
  request.operation = "add";
  NullContext context;
  std::optional<cdr::ReplyMessage> reply;
  adapter.dispatch(request, context, [&](cdr::ReplyMessage r) { reply = std::move(r); });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, cdr::ReplyStatus::kSystemException);
  EXPECT_NE(reply->exception_detail.find("OBJECT_NOT_EXIST"), std::string::npos);
}

TEST(ObjectAdapterTest, DispatchInterfaceMismatchIsException) {
  ObjectAdapter adapter(DomainId(1));
  const ObjectRef ref = adapter.activate(std::make_shared<CalculatorServant>());
  cdr::RequestMessage request;
  request.object_key = ref.key;
  request.operation = "add";
  request.interface_name = "IDL:wrong/Interface:1.0";
  NullContext context;
  std::optional<cdr::ReplyMessage> reply;
  adapter.dispatch(request, context, [&](cdr::ReplyMessage r) { reply = std::move(r); });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, cdr::ReplyStatus::kSystemException);
}

TEST(ObjectAdapterTest, UserExceptionPropagates) {
  ObjectAdapter adapter(DomainId(1));
  const ObjectRef ref = adapter.activate(std::make_shared<CalculatorServant>());
  cdr::RequestMessage request;
  request.object_key = ref.key;
  request.operation = "divide";
  request.interface_name = ref.interface_name;
  request.arguments = int_pair(1, 0);
  NullContext context;
  std::optional<cdr::ReplyMessage> reply;
  adapter.dispatch(request, context, [&](cdr::ReplyMessage r) { reply = std::move(r); });
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->status, cdr::ReplyStatus::kUserException);
  EXPECT_NE(reply->exception_detail.find("DivideByZero"), std::string::npos);
}

// ---------------------------------------------------------------------------
// IIOP end-to-end
// ---------------------------------------------------------------------------

class IiopFixture : public ::testing::Test {
 protected:
  IiopFixture() : net_(sim_, net_config()) {
    // Server domain 1 on node 1.
    server_orb_ = std::make_unique<Orb>(
        DomainId(1),
        std::make_unique<IiopProtocol>(net_, NodeId(11), IiopDirectory{{DomainId(1), NodeId(1)}}),
        sim_.telemetry().metrics(), NodeId(11));
    server_ = std::make_unique<IiopServer>(net_, NodeId(1), *server_orb_);
    calculator_ = std::make_shared<CalculatorServant>();
    calc_ref_ = server_orb_->adapter().activate(calculator_);

    client_orb_ = std::make_unique<Orb>(
        DomainId(100),
        std::make_unique<IiopProtocol>(net_, NodeId(2), IiopDirectory{{DomainId(1), NodeId(1)}}),
        sim_.telemetry().metrics(), NodeId(2));
  }

  static net::NetConfig net_config() {
    net::NetConfig c;
    c.min_delay_ns = micros(20);
    c.max_delay_ns = micros(50);
    return c;
  }

  Result<cdr::Value> invoke_sync(Orb& orb, const ObjectRef& ref, const std::string& op,
                                 cdr::Value args) {
    std::optional<Result<cdr::Value>> outcome;
    orb.invoke(ref, op, std::move(args),
               [&](Result<cdr::Value> r) { outcome = std::move(r); });
    sim_.run(100000);
    if (!outcome) return error(Errc::kUnavailable, "no completion");
    return std::move(*outcome);
  }

  /// A counter of the client ORB (`orb.2.*`).
  std::uint64_t client_count(std::string_view name) const {
    return sim_.telemetry().metrics().counter_value(
        telemetry::metric_name("orb", NodeId(2), name));
  }

  net::Simulator sim_{7};
  net::Network net_;
  std::unique_ptr<Orb> server_orb_;
  std::unique_ptr<IiopServer> server_;
  std::shared_ptr<CalculatorServant> calculator_;
  ObjectRef calc_ref_;
  std::unique_ptr<Orb> client_orb_;
};

TEST_F(IiopFixture, EndToEndInvocation) {
  const Result<cdr::Value> result =
      invoke_sync(*client_orb_, calc_ref_, "add", int_pair(2, 3));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 5);
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(IiopFixture, ConnectionIsReused) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(invoke_sync(*client_orb_, calc_ref_, "add", int_pair(i, i)).is_ok());
  }
  EXPECT_EQ(client_count("connections_established"), 1u);
  EXPECT_EQ(client_count("requests_sent"), 5u);
}

TEST_F(IiopFixture, SecondObjectSameDomainSameConnection) {
  const ObjectRef second = server_orb_->adapter().activate(
      std::make_shared<CalculatorServant>());
  ASSERT_TRUE(invoke_sync(*client_orb_, calc_ref_, "add", int_pair(1, 1)).is_ok());
  ASSERT_TRUE(invoke_sync(*client_orb_, second, "add", int_pair(2, 2)).is_ok());
  // §3.4: objects co-hosted in one server share the client's connection.
  EXPECT_EQ(client_count("connections_established"), 1u);
}

TEST_F(IiopFixture, UserExceptionSurfacesAsError) {
  const Result<cdr::Value> result =
      invoke_sync(*client_orb_, calc_ref_, "divide", int_pair(1, 0));
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), Errc::kPermissionDenied);
  EXPECT_NE(result.status().detail().find("DivideByZero"), std::string::npos);
}

TEST_F(IiopFixture, UnknownDomainFailsConnect) {
  ObjectRef bogus = calc_ref_;
  bogus.domain = DomainId(99);
  const Result<cdr::Value> result =
      invoke_sync(*client_orb_, bogus, "add", int_pair(1, 1));
  EXPECT_EQ(result.status().code(), Errc::kNotFound);
  EXPECT_EQ(client_count("connect_failures"), 1u);
}

TEST_F(IiopFixture, DeadServerTimesOut) {
  server_.reset();  // kill the server process
  const Result<cdr::Value> result =
      invoke_sync(*client_orb_, calc_ref_, "add", int_pair(1, 1));
  EXPECT_EQ(result.status().code(), Errc::kUnavailable);
}

TEST_F(IiopFixture, PipelinedInvokesAllComplete) {
  int completions = 0;
  for (int i = 0; i < 10; ++i) {
    client_orb_->invoke(calc_ref_, "add", int_pair(i, 1), [&](Result<cdr::Value> r) {
      ASSERT_TRUE(r.is_ok());
      ++completions;
    });
  }
  sim_.run(1000000);
  EXPECT_EQ(completions, 10);
  // One-outstanding-per-connection discipline still sends them all.
  EXPECT_EQ(client_count("requests_sent"), 10u);
}

TEST_F(IiopFixture, NestedInvocationThroughSecondDomain) {
  // Forwarder (domain 2, node 3) relays to Calculator (domain 1, node 1).
  Orb forwarder_orb(DomainId(2),
                    std::make_unique<IiopProtocol>(
                        net_, NodeId(12), IiopDirectory{{DomainId(1), NodeId(1)}}),
                    sim_.telemetry().metrics(), NodeId(12));
  IiopServer forwarder_server(net_, NodeId(3), forwarder_orb);
  const ObjectRef relay_ref =
      forwarder_orb.adapter().activate(std::make_shared<ForwarderServant>(calc_ref_));

  Orb client(DomainId(101),
             std::make_unique<IiopProtocol>(
                 net_, NodeId(4), IiopDirectory{{DomainId(2), NodeId(3)}}),
             sim_.telemetry().metrics(), NodeId(4));
  std::optional<Result<cdr::Value>> outcome;
  client.invoke(relay_ref, "relay", int_pair(40, 2),
                [&](Result<cdr::Value> r) { outcome = std::move(r); });
  sim_.run(1000000);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_ok()) << outcome->status().to_string();
  EXPECT_TRUE(outcome->value().field("relayed").value().as_boolean());
  EXPECT_EQ(outcome->value().field("value").value().as_int64(), 42);
}

TEST_F(IiopFixture, MalformedBytesToServerIgnored) {
  // Hostile garbage straight at the server endpoint must not break serving.
  net_.send(NodeId(50), NodeId(1), to_bytes("GARBAGE-NOT-GIOP"));
  sim_.run(10000);
  const Result<cdr::Value> result =
      invoke_sync(*client_orb_, calc_ref_, "add", int_pair(5, 5));
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().as_int64(), 10);
}

}  // namespace
}  // namespace itdos::orb
