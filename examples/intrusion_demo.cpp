// Intrusion demo: the full §3.6 fault story, narrated.
//
//   1. A replicated status service runs with one COMPROMISED element that
//      returns forged values (valid crypto, wrong data — an intrusion, not
//      a crash).
//   2. The client's voter masks the lie (f+1 matching correct replies win).
//   3. The client files a change_request with PROOF: the signed replies,
//      including the forged one.
//   4. The Group Manager re-votes the proof on unmarshalled data, confirms
//      the accusation, EXPELS the element and REKEYS the connection with
//      threshold-generated shares the expelled element never sees.
//   5. Service continues; the intruder is keyed out of all traffic.
//
// Run: build/examples/intrusion_demo
#include <cstdio>

#include "itdos/system.hpp"

using namespace itdos;
using cdr::Value;

class StatusService : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:ops/Status:1.0"; }

  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    (void)arguments;
    if (operation == "threat_level") {
      sink->reply(Value::structure({cdr::Field("level", Value::string("GREEN")),
                                    cdr::Field("confidence", Value::int64(97))}));
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown operation"));
    }
  }
};

int main() {
  core::ItdosSystem system;
  const DomainId domain = system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        (void)adapter.activate_with_key(ObjectId(1), std::make_shared<StatusService>());
      });
  const orb::ObjectRef status =
      system.object_ref(domain, ObjectId(1), "IDL:ops/Status:1.0");

  // Compromise element 2: the intruder forges every reply. MACs, seals and
  // signatures are all VALID — only the value is wrong.
  const int intruder_rank = 2;
  system.element(domain, intruder_rank).set_reply_mutator([](cdr::ReplyMessage reply) {
    reply.result = Value::structure({cdr::Field("level", Value::string("RED")),
                                     cdr::Field("confidence", Value::int64(99))});
    return reply;
  });
  const NodeId intruder = system.element(domain, intruder_rank).smiop_node();
  std::printf("[setup] element rank %d (node %llu) is compromised and forging replies\n\n",
              intruder_rank, static_cast<unsigned long long>(intruder.value));

  core::ItdosClient& client = system.add_client();

  // --- step 1+2: the lie is masked by voting ---
  const Result<Value> first =
      system.invoke_sync(client, status, "threat_level", Value::sequence({}));
  std::printf("[invoke] threat_level() -> %s\n",
              first.is_ok() ? first.value().to_string().c_str()
                            : first.status().to_string().c_str());
  std::printf("         (the forged RED reply was outvoted by f+1 correct GREENs)\n\n");

  // --- step 3+4: detection, proof, expulsion, rekey ---
  system.settle();
  const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
  const auto party = [&](std::string_view name) {
    return static_cast<unsigned long long>(
        reg.counter_value(telemetry::metric_name("smiop", client.smiop_node(), name)));
  };
  std::printf("[detect] dissenting replies observed : %llu\n", party("faults_detected"));
  std::printf("[report] change_requests (with proof): %llu\n", party("change_requests_sent"));
  const bool expelled = system.gm_element(0).state().is_expelled(domain, intruder);
  std::printf("[expel]  Group Manager verdict       : %s\n",
              expelled ? "EXPELLED (proof verified by GM's unmarshalled vote)"
                       : "still in (unexpected)");

  const ConnectionId conn = system.gm_element(0).state().connections().begin()->first;
  const auto* client_entry = client.party().conn_table().find(conn);
  const auto* intruder_entry =
      system.element(domain, intruder_rank).party().conn_table().find(conn);
  std::printf("[rekey]  client key epoch            : %llu\n",
              static_cast<unsigned long long>(client_entry->record.epoch.value));
  std::printf("[rekey]  intruder has epoch-2 key    : %s\n",
              (intruder_entry != nullptr && intruder_entry->keys.contains(2))
                  ? "yes (BUG!)"
                  : "no (keyed out)");

  // --- step 5: service continues without the intruder ---
  const Result<Value> second = system.invoke_sync(client, status, "threat_level",
                                                  Value::sequence({}), seconds(10));
  std::printf("\n[invoke] threat_level() after expulsion -> %s\n",
              second.is_ok() ? second.value().to_string().c_str()
                             : second.status().to_string().c_str());
  std::printf("[done]   availability and integrity preserved through the intrusion\n");
  return (expelled && second.is_ok()) ? 0 : 1;
}
