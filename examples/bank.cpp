// Bank: two replication domains with nested invocations (§2 "servers can,
// in turn, be clients"; §3.1 nested invocation support).
//
//   client -> Teller domain (4 replicas) -> Ledger domain (4 replicas)
//
// The Teller's transfer() upcall performs TWO nested invocations on the
// replicated Ledger (debit, then credit) before replying. Each Teller
// element independently issues the nested calls; the Ledger's elements vote
// on the 4 ordered request copies and execute once; the nested replies are
// voted at each Teller element.
//
// Run: build/examples/bank
#include <cstdio>

#include "itdos/system.hpp"

using namespace itdos;
using cdr::Value;

class Ledger : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:bank/Ledger:1.0"; }

  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "adjust") {
      const std::string account = arguments.field("account").value().as_string();
      const std::int64_t delta = arguments.field("delta").value().as_int64();
      auto& balance = balances_[account];
      if (balance + delta < 0) {
        sink->reply(error(Errc::kInvalidArgument, "InsufficientFunds"));
        return;
      }
      balance += delta;
      sink->reply(Value::int64(balance));
    } else if (operation == "balance") {
      const std::string account = arguments.field("account").value().as_string();
      sink->reply(Value::int64(balances_[account]));
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown operation"));
    }
  }

 private:
  std::map<std::string, std::int64_t> balances_{{"alice", 100}, {"bob", 50}};
};

class Teller : public orb::Servant {
 public:
  explicit Teller(orb::ObjectRef ledger) : ledger_(std::move(ledger)) {}

  std::string interface_name() const override { return "IDL:bank/Teller:1.0"; }

  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext& context, orb::ReplySinkPtr sink) override {
    if (operation != "transfer") {
      sink->reply(error(Errc::kInvalidArgument, "unknown operation"));
      return;
    }
    const std::string from = arguments.field("from").value().as_string();
    const std::string to = arguments.field("to").value().as_string();
    const std::int64_t amount = arguments.field("amount").value().as_int64();

    // Nested call 1: debit. The upcall pauses here; the element's queue
    // consumption resumes only after the voted reply arrives (§3.1).
    context.invoke_nested(
        ledger_, "adjust",
        Value::structure({cdr::Field("account", Value::string(from)),
                          cdr::Field("delta", Value::int64(-amount))}),
        [this, &context, to, amount, sink](Result<Value> debit) {
          if (!debit.is_ok()) {
            sink->reply(debit.status());  // e.g. InsufficientFunds
            return;
          }
          // Nested call 2: credit.
          context.invoke_nested(
              ledger_, "adjust",
              Value::structure({cdr::Field("account", Value::string(to)),
                                cdr::Field("delta", Value::int64(amount))}),
              [debit = std::move(debit).take(), sink](Result<Value> credit) {
                if (!credit.is_ok()) {
                  sink->reply(credit.status());
                  return;
                }
                sink->reply(Value::structure(
                    {cdr::Field("from_balance", debit),
                     cdr::Field("to_balance", std::move(credit).take())}));
              });
        });
  }

 private:
  orb::ObjectRef ledger_;
};

int main() {
  core::ItdosSystem system;

  const DomainId ledger_domain = system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        (void)adapter.activate_with_key(ObjectId(1), std::make_shared<Ledger>());
      });
  const orb::ObjectRef ledger =
      system.object_ref(ledger_domain, ObjectId(1), "IDL:bank/Ledger:1.0");

  const DomainId teller_domain = system.add_domain(
      1, core::VotePolicy::exact(), [&](orb::ObjectAdapter& adapter, int) {
        (void)adapter.activate_with_key(ObjectId(1), std::make_shared<Teller>(ledger));
      });
  const orb::ObjectRef teller =
      system.object_ref(teller_domain, ObjectId(1), "IDL:bank/Teller:1.0");

  core::ItdosClient& client = system.add_client();

  auto transfer = [&](const char* from, const char* to, std::int64_t amount) {
    const Result<Value> result = system.invoke_sync(
        client, teller, "transfer",
        Value::structure({cdr::Field("from", Value::string(from)),
                          cdr::Field("to", Value::string(to)),
                          cdr::Field("amount", Value::int64(amount))}),
        seconds(30));
    if (result.is_ok()) {
      std::printf("transfer %s -> %s (%lld): %s\n", from, to,
                  static_cast<long long>(amount), result.value().to_string().c_str());
    } else {
      std::printf("transfer %s -> %s (%lld): REFUSED (%s)\n", from, to,
                  static_cast<long long>(amount),
                  result.status().to_string().c_str());
    }
  };

  transfer("alice", "bob", 30);
  transfer("bob", "alice", 10);
  transfer("alice", "bob", 1000);  // refused: insufficient funds

  // Check the final balance straight from the ledger domain.
  const Result<Value> alice = system.invoke_sync(
      client, ledger, "balance",
      Value::structure({cdr::Field("account", Value::string("alice"))}), seconds(30));
  std::printf("alice's final balance: %s\n", alice.value().to_string().c_str());

  std::printf("\nledger elements voted on ordered request copies from the "
              "replicated teller:\n");
  std::printf("  ledger element 0 request-vote copies: %llu\n",
              static_cast<unsigned long long>(system.sim().telemetry().metrics().counter_value(
                  telemetry::metric_name("element", system.element(ledger_domain, 0).smiop_node(),
                                         "request_vote_copies"))));
  return 0;
}
