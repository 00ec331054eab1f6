// Quickstart: a singleton client invoking a replicated, intrusion-tolerant
// calculator service (Figure 1 of the paper, minus the fault injection —
// see examples/intrusion_demo.cpp for that).
//
// Run: build/examples/quickstart
#include <cstdio>

#include "itdos/system.hpp"

using namespace itdos;
using core::ItdosSystem;
using cdr::Value;

/// Your servant: plain C++, no IDL compiler. Heterogeneous deployments can
/// install a different implementation per replica rank.
class Calculator : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:demo/Calculator:1.0"; }

  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      std::int64_t sum = 0;
      for (const Value& v : arguments.elements()) sum += v.as_int64();
      sink->reply(Value::int64(sum));
    } else if (operation == "mul") {
      std::int64_t product = 1;
      for (const Value& v : arguments.elements()) product *= v.as_int64();
      sink->reply(Value::int64(product));
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown operation"));
    }
  }
};

int main() {
  // 1. Bring up an ITDOS deployment: this creates the Group Manager
  //    replication domain (4 elements tolerating 1 Byzantine fault).
  ItdosSystem system;

  // 2. Add a replicated server domain: 3f+1 = 4 elements, each hosting the
  //    calculator; elements alternate byte order (heterogeneous platforms).
  const DomainId domain = system.add_domain(
      /*f=*/1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int rank) {
        (void)rank;
        (void)adapter.activate_with_key(ObjectId(1), std::make_shared<Calculator>());
      });

  // 3. Add a client and invoke. Under the hood this runs Figure 3: an
  //    open_request to the Group Manager, threshold key-share distribution,
  //    BFT-ordered delivery to all four elements, and middleware voting on
  //    the four (differently-encoded) replies.
  core::ItdosClient& client = system.add_client();
  const orb::ObjectRef calc =
      system.object_ref(domain, ObjectId(1), "IDL:demo/Calculator:1.0");

  const Result<Value> sum =
      system.invoke_sync(client, calc, "add",
                         Value::sequence({Value::int64(30), Value::int64(12)}));
  if (!sum.is_ok()) {
    std::fprintf(stderr, "invocation failed: %s\n", sum.status().to_string().c_str());
    return 1;
  }
  std::printf("add(30, 12)  -> %s\n", sum.value().to_string().c_str());

  const Result<Value> product =
      system.invoke_sync(client, calc, "mul",
                         Value::sequence({Value::int64(6), Value::int64(7)}));
  std::printf("mul(6, 7)    -> %s\n", product.value().to_string().c_str());

  // Every layer counts into the simulator's metrics registry.
  const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
  const auto party = [&](std::string_view name) {
    return static_cast<unsigned long long>(
        reg.counter_value(telemetry::metric_name("smiop", client.smiop_node(), name)));
  };
  std::printf("\nwhat happened under the hood:\n");
  std::printf("  open_requests to the Group Manager : %llu\n", party("opens_sent"));
  std::printf("  ordered requests sent              : %llu\n", party("requests_sent"));
  std::printf("  replies received from elements     : %llu\n", party("replies_received"));
  std::printf("  votes decided                      : %llu\n", party("votes_decided"));
  std::printf("  network packets delivered          : %llu\n",
              static_cast<unsigned long long>(reg.counter_value("net.packets_delivered")));
  return 0;
}
