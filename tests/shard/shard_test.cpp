// Sharded deployment tests: routing determinism, location-transparent
// invocations, cross-domain nested calls (teller -> accounts), the
// f-boundary duplicate-suppression rule at the callee, rebalance, and GM
// virtual-connection scaling across many domains.
#include "shard/bank.hpp"
#include "shard/sharded_load.hpp"
#include "shard/topology.hpp"

#include <gtest/gtest.h>

namespace itdos::shard {
namespace {

using cdr::Value;

Value int_args(std::initializer_list<std::int64_t> values) {
  std::vector<Value> elems;
  for (std::int64_t v : values) elems.push_back(Value::int64(v));
  return Value::sequence(std::move(elems));
}

core::SystemOptions fast_options(std::uint64_t seed = 1) {
  core::SystemOptions opts;
  opts.seed = seed;
  return opts;
}

/// An `element.*` counter of the element at (domain, rank).
std::uint64_t element_count(core::ItdosSystem& system, DomainId domain, int rank,
                            std::string_view name) {
  return system.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("element", system.element(domain, rank).smiop_node(), name));
}

/// First account id (searching up from 1) the bank assigns to shard `index`.
ObjectId account_on_shard(const Bank& bank, int index) {
  const std::vector<ObjectId> owned = bank.accounts_of_shard(index);
  EXPECT_FALSE(owned.empty()) << "no account hashed to shard " << index;
  return owned.empty() ? ObjectId(0) : owned.front();
}

// ---------------------------------------------------------------------------
// ShardMap unit tests
// ---------------------------------------------------------------------------

TEST(ShardMapTest, EvenPartitionRoutesEveryKeyToARegisteredOwner) {
  ShardMap map;
  const std::vector<DomainId> owners = {DomainId(10), DomainId(11), DomainId(12),
                                        DomainId(13)};
  map.partition_evenly(owners);
  ASSERT_EQ(map.range_count(), owners.size());
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const DomainId owner = map.route(ObjectId(k));
    EXPECT_NE(owner, kRoutedDomain);
    // route() must agree with the index-only assignment deployment code uses
    // before domains exist.
    EXPECT_EQ(owner, owners[ShardMap::even_slice(ObjectId(k), owners.size())]);
  }
}

TEST(ShardMapTest, SameOwnersSameTableByteStable) {
  ShardMap a;
  ShardMap b;
  const std::vector<DomainId> owners = {DomainId(10), DomainId(11), DomainId(12)};
  a.partition_evenly(owners);
  b.partition_evenly(owners);
  EXPECT_EQ(a.table_digest(), b.table_digest());
  for (std::uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(a.route(ObjectId(k)), b.route(ObjectId(k)));
  }
}

TEST(ShardMapTest, SingleShardOwnsTheWholeSpace) {
  ShardMap map;
  map.partition_evenly({DomainId(10)});
  for (std::uint64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(map.route(ObjectId(k)), DomainId(10));
  }
}

TEST(ShardMapTest, EmptyMapIsUnroutable) {
  ShardMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.route(ObjectId(7)), kRoutedDomain);
}

TEST(ShardMapTest, ReassignMovesEveryRangeAndBumpsGeneration) {
  ShardMap map;
  map.partition_evenly({DomainId(10), DomainId(11)});
  const std::uint64_t before = map.generation();
  const std::uint64_t digest_before = map.table_digest();
  ASSERT_EQ(map.reassign(DomainId(10), DomainId(20)), 1u);
  EXPECT_GT(map.generation(), before);
  EXPECT_NE(map.table_digest(), digest_before);
  for (std::uint64_t k = 0; k < 500; ++k) {
    EXPECT_NE(map.route(ObjectId(k)), DomainId(10));
  }
  // Reassigning a domain with no ranges is a no-op.
  EXPECT_EQ(map.reassign(DomainId(10), DomainId(21)), 0u);
}

// ---------------------------------------------------------------------------
// Routing determinism across identically-seeded systems (byte-stable)
// ---------------------------------------------------------------------------

TEST(ShardRoutingTest, SameSeedSameSpecSameRouteBytes) {
  BankSpec spec;
  spec.shards = 3;
  spec.tellers = 0;
  spec.clients = 0;
  spec.accounts = 64;

  const auto route_bytes = [&spec](std::uint64_t seed) {
    core::ItdosSystem system(fast_options(seed));
    Bank bank = Bank::build(system, spec);
    std::vector<std::uint64_t> bytes;
    bytes.push_back(system.directory().shards().table_digest());
    for (const ObjectId id : bank.account_ids()) {
      bytes.push_back(bank.topology().route(id).value);
    }
    return bytes;
  };

  EXPECT_EQ(route_bytes(1), route_bytes(1));
  // Routing is a function of the SPEC, not the net seed: a different seed
  // reorders packets but must not move a single key.
  EXPECT_EQ(route_bytes(1), route_bytes(99));
}

// ---------------------------------------------------------------------------
// Location-transparent invocations
// ---------------------------------------------------------------------------

TEST(ShardRoutingTest, RoutedDepositsReachEveryShard) {
  core::ItdosSystem system(fast_options());
  BankSpec spec;
  spec.shards = 2;
  spec.tellers = 0;
  spec.clients = 1;
  spec.accounts = 8;
  Bank bank = Bank::build(system, spec);

  for (const ObjectId account : bank.account_ids()) {
    Result<Value> r = system.invoke_sync(bank.client(), bank.account_ref(account),
                                         "deposit", int_args({5}));
    ASSERT_TRUE(r.is_ok()) << "account " << account.value << ": "
                           << r.status().to_string();
    EXPECT_EQ(r.value().as_int64(), spec.initial_balance + 5);
  }
  // Both shard domains executed their share of the stream.
  for (const DomainId domain : bank.topology().shard_domains()) {
    EXPECT_GT(element_count(system, domain, 0, "requests_executed"), 0u);
  }
}

TEST(ShardRoutingTest, UnroutableKeyFailsExplicitly) {
  core::ItdosSystem system(fast_options());
  core::ItdosClient& client = system.add_client();
  // No shard map registered: a routed ref must fail, not hang or crash.
  Result<Value> r = system.invoke_sync(
      client, system.routed_ref(ObjectId(3), "IDL:bank/Account:1.0"), "balance",
      Value::sequence({}));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kNotFound);
}

// ---------------------------------------------------------------------------
// Cross-domain nested invocations (teller -> accounts)
// ---------------------------------------------------------------------------

TEST(ShardBankTest, TellerTransferMovesMoneyAcrossShardDomains) {
  core::ItdosSystem system(fast_options());
  BankSpec spec;
  spec.shards = 2;
  spec.tellers = 1;
  spec.clients = 1;
  spec.accounts = 8;
  Bank bank = Bank::build(system, spec);

  const ObjectId from = account_on_shard(bank, 0);
  const ObjectId to = account_on_shard(bank, 1);
  ASSERT_NE(bank.topology().route(from), bank.topology().route(to));

  Result<Value> r = system.invoke_sync(
      bank.client(), bank.teller_ref(), "transfer",
      int_args({static_cast<std::int64_t>(from.value),
                static_cast<std::int64_t>(to.value), 250}),
      seconds(10));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().as_int64(), spec.initial_balance - 250);

  // Verify both balances through the teller (more nested cross-domain hops).
  Result<Value> from_bal = system.invoke_sync(
      bank.client(), bank.teller_ref(), "balance",
      int_args({static_cast<std::int64_t>(from.value)}), seconds(10));
  ASSERT_TRUE(from_bal.is_ok()) << from_bal.status().to_string();
  EXPECT_EQ(from_bal.value().as_int64(), spec.initial_balance - 250);

  Result<Value> to_bal = system.invoke_sync(
      bank.client(), bank.teller_ref(), "balance",
      int_args({static_cast<std::int64_t>(to.value)}), seconds(10));
  ASSERT_TRUE(to_bal.is_ok()) << to_bal.status().to_string();
  EXPECT_EQ(to_bal.value().as_int64(), spec.initial_balance + 250);
}

TEST(ShardBankTest, InsufficientFundsSurfaceAsUserException) {
  core::ItdosSystem system(fast_options());
  BankSpec spec;
  spec.shards = 2;
  spec.tellers = 1;
  spec.clients = 1;
  spec.accounts = 4;
  spec.initial_balance = 10;
  Bank bank = Bank::build(system, spec);

  const ObjectId from = account_on_shard(bank, 0);
  const ObjectId to = account_on_shard(bank, 1);
  Result<Value> r = system.invoke_sync(
      bank.client(), bank.teller_ref(), "transfer",
      int_args({static_cast<std::int64_t>(from.value),
                static_cast<std::int64_t>(to.value), 10'000}),
      seconds(10));
  ASSERT_FALSE(r.is_ok());
  // The withdraw failed; no deposit may have happened at `to`.
  Result<Value> to_bal = system.invoke_sync(
      bank.client(), bank.teller_ref(), "balance",
      int_args({static_cast<std::int64_t>(to.value)}), seconds(10));
  ASSERT_TRUE(to_bal.is_ok());
  EXPECT_EQ(to_bal.value().as_int64(), spec.initial_balance);
}

// ---------------------------------------------------------------------------
// f-boundary: duplicate nested requests execute exactly once at the callee
// ---------------------------------------------------------------------------

TEST(ShardBankTest, ReplicatedCallerCopiesExecuteExactlyOnceAtCallee) {
  core::ItdosSystem system(fast_options());
  BankSpec spec;
  spec.shards = 2;
  spec.tellers = 1;  // f=1: 4 teller elements each submit the nested request
  spec.clients = 1;
  spec.accounts = 8;
  Bank bank = Bank::build(system, spec);

  const ObjectId account = account_on_shard(bank, 0);
  const DomainId callee = bank.topology().route(account);
  const int caller_f = spec.f;

  Result<Value> r = system.invoke_sync(
      bank.client(), bank.teller_ref(), "deposit",
      int_args({static_cast<std::int64_t>(account.value), 7}), seconds(10));
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  // Deposited exactly once despite 3f+1 replicated callers.
  EXPECT_EQ(r.value().as_int64(), spec.initial_balance + 7);
  system.settle(200'000);

  for (int rank = 0; rank < system.domain_n(callee); ++rank) {
    // Every callee element saw the replicated callers' duplicate copies
    // (at least the f+1 the vote needs)...
    EXPECT_GE(element_count(system, callee, rank, "request_vote_copies"),
              static_cast<std::uint64_t>(caller_f + 1))
        << "rank " << rank;
    // ...but executed the nested request exactly once.
    EXPECT_EQ(element_count(system, callee, rank, "requests_executed"), 1u) << "rank " << rank;
  }

  // State-level proof: a second voted read shows one deposit, not 3f+1.
  Result<Value> bal = system.invoke_sync(
      bank.client(), bank.teller_ref(), "balance",
      int_args({static_cast<std::int64_t>(account.value)}), seconds(10));
  ASSERT_TRUE(bal.is_ok());
  EXPECT_EQ(bal.value().as_int64(), spec.initial_balance + 7);
}

// ---------------------------------------------------------------------------
// Rebalance / replacement
// ---------------------------------------------------------------------------

TEST(ShardBankTest, KeyRangesSurviveElementReplacement) {
  core::ItdosSystem system(fast_options());
  BankSpec spec;
  spec.shards = 2;
  spec.tellers = 0;
  spec.clients = 1;
  spec.accounts = 8;
  Bank bank = Bank::build(system, spec);

  const DomainId victim = bank.topology().shard_domains().front();
  const ObjectId account = account_on_shard(bank, 0);
  ASSERT_EQ(bank.topology().route(account), victim);

  Result<Value> first = system.invoke_sync(bank.client(), bank.account_ref(account),
                                           "deposit", int_args({5}));
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();

  const std::uint64_t digest_before = system.directory().shards().table_digest();
  std::vector<std::uint64_t> routes_before;
  for (const ObjectId id : bank.account_ids()) {
    routes_before.push_back(bank.topology().route(id).value);
  }

  // Crash-replace an element of the owning domain. replace_element swaps an
  // element IDENTITY inside the domain; the key ranges must not move.
  system.crash_element(victim, 2);
  core::DomainElement& fresh = system.replace_element(victim, 2);
  system.settle(2'000'000);
  EXPECT_TRUE(fresh.replacement_complete());

  EXPECT_EQ(system.directory().shards().table_digest(), digest_before);
  std::vector<std::uint64_t> routes_after;
  for (const ObjectId id : bank.account_ids()) {
    routes_after.push_back(bank.topology().route(id).value);
  }
  EXPECT_EQ(routes_before, routes_after);

  // Routed traffic still lands on the (repaired) owner, on prior state.
  Result<Value> second = system.invoke_sync(bank.client(), bank.account_ref(account),
                                            "deposit", int_args({5}), seconds(10));
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  EXPECT_EQ(second.value().as_int64(), spec.initial_balance + 10);
}

TEST(ShardBankTest, ExplicitRebalanceMovesTraffic) {
  core::ItdosSystem system(fast_options());
  BankSpec spec;
  spec.shards = 2;
  spec.tellers = 0;
  spec.clients = 1;
  spec.accounts = 8;
  Bank bank = Bank::build(system, spec);

  const std::vector<DomainId>& domains = bank.topology().shard_domains();
  const ObjectId account = account_on_shard(bank, 0);
  ASSERT_EQ(bank.topology().route(account), domains[0]);

  // Drain shard 0: hand its ranges to shard 1 (e.g. ahead of decommission).
  ASSERT_GT(system.shards().reassign(domains[0], domains[1]), 0u);
  EXPECT_EQ(bank.topology().route(account), domains[1]);

  // The account servant exists in domain 1 only if the key hashed there, so
  // route-level checks are the contract here; invocations now reach domain 1
  // (and fail with an unknown-object exception, proving the routing moved).
  Result<Value> r = system.invoke_sync(bank.client(), bank.account_ref(account),
                                       "balance", Value::sequence({}), seconds(10));
  ASSERT_FALSE(r.is_ok());
  const std::uint64_t before = element_count(system, domains[0], 0, "requests_executed");
  EXPECT_GT(element_count(system, domains[1], 0, "requests_executed"), 0u);
  EXPECT_EQ(element_count(system, domains[0], 0, "requests_executed"), before);
}

// ---------------------------------------------------------------------------
// GM virtual-connection scaling: many domains, one directory
// ---------------------------------------------------------------------------

TEST(ShardTopologyTest, DozenDomainTopologyServesEveryShard) {
  core::ItdosSystem system(fast_options());
  BankSpec spec;
  spec.shards = 12;
  spec.tellers = 0;
  spec.clients = 2;
  spec.accounts = 96;
  Bank bank = Bank::build(system, spec);
  ASSERT_EQ(bank.topology().shard_domains().size(), 12u);

  // One deposit into each shard, alternating client enclaves: 12 virtual
  // connections from 2 clients through one GM.
  for (int shard = 0; shard < spec.shards; ++shard) {
    const ObjectId account = account_on_shard(bank, shard);
    Result<Value> r = system.invoke_sync(
        bank.client(static_cast<std::size_t>(shard % 2)),
        bank.account_ref(account), "deposit", int_args({1}), seconds(20));
    ASSERT_TRUE(r.is_ok()) << "shard " << shard << ": " << r.status().to_string();
    EXPECT_EQ(r.value().as_int64(), spec.initial_balance + 1);
  }
}

// ---------------------------------------------------------------------------
// Sharded load mixes
// ---------------------------------------------------------------------------

TEST(ShardedLoadTest, DepositMixSpreadsArrivalsAcrossShards) {
  core::ItdosSystem system(fast_options());
  BankSpec spec;
  spec.shards = 2;
  spec.tellers = 0;
  spec.clients = 0;  // the generator brings its own client pool
  spec.accounts = 16;
  Bank bank = Bank::build(system, spec);

  load::LoadOptions options = sharded_load_options(
      bank_deposit_mix(bank), /*rate_per_s=*/400.0, /*horizon_ns=*/millis(100),
      /*clients=*/8, /*seed=*/7);
  load::LoadGenerator generator(system, bank.account_ref(bank.account_ids().front()),
                                options);
  generator.start();
  generator.run_to_completion();
  const load::LoadReport report = generator.report();
  EXPECT_GT(report.ok, 0u);
  EXPECT_EQ(report.ok + report.overloaded + report.failed + report.starved,
            report.offered);
  // The key mix reached both shard domains.
  for (const DomainId domain : bank.topology().shard_domains()) {
    EXPECT_GT(element_count(system, domain, 0, "requests_executed"), 0u)
        << "domain " << domain.value;
  }
}

}  // namespace
}  // namespace itdos::shard
