// Recovery subsystem (DESIGN.md §6d): expel -> replace -> rekey cycles driven
// by the RecoveryManager against a live ItdosSystem, plus the f-exhaustion
// boundary — recovery restores the intrusion budget between waves, which is
// the window-of-vulnerability claim the subsystem exists for.
#include <gtest/gtest.h>

#include "fault/scenario.hpp"
#include "itdos/system.hpp"
#include "recovery/recovery_manager.hpp"

namespace itdos::recovery {
namespace {

using cdr::Value;

/// Accumulator servant WITH persistence: replacements must rebuild its state
/// from peer bundles, so a wrong running total after recovery is visible in
/// every subsequent reply.
class PersistentSum : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:recovery/PSum:1.0"; }

  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      total_ += arguments.elements()[0].as_int64();
      sink->reply(Value::int64(total_));
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown op"));
    }
  }

  Result<Bytes> save_state() const override {
    cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
    enc.write_int64(total_);
    return enc.take();
  }

  Status load_state(ByteView state) override {
    cdr::Decoder dec(state, cdr::ByteOrder::kLittleEndian);
    ITDOS_ASSIGN_OR_RETURN(total_, dec.read_int64());
    return Status::ok();
  }

 private:
  std::int64_t total_ = 0;
};

Value one_arg(std::int64_t v) { return Value::sequence({Value::int64(v)}); }

DomainId add_persistent_domain(core::ItdosSystem& system) {
  return system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        // Key 1 is free in a freshly built domain; activation cannot fail.
        (void)adapter.activate_with_key(ObjectId(1),
                                        std::make_shared<PersistentSum>());
      });
}

class RecoveryManagerTest : public ::testing::Test {
 protected:
  void build() {
    domain_ = add_persistent_domain(system_);
    client_ = &system_.add_client();
    ref_ = system_.object_ref(domain_, ObjectId(1), "IDL:recovery/PSum:1.0");
  }

  /// Invokes `add` and asserts the replicated running total stays exact.
  void add_and_check(std::int64_t amount) {
    total_ += amount;
    auto result =
        system_.invoke_sync(*client_, ref_, "add", one_arg(amount), seconds(30));
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().as_int64(), total_);
  }

  /// A `recovery.*` counter from the system's registry.
  std::uint64_t recovery_count(std::string_view name) {
    return system_.sim().telemetry().metrics().counter_value("recovery." + std::string(name));
  }

  core::ItdosSystem system_;
  DomainId domain_;
  core::ItdosClient* client_ = nullptr;
  orb::ObjectRef ref_;
  std::int64_t total_ = 0;
};

TEST_F(RecoveryManagerTest, ExpelledElementIsReplacedAndDomainRestored) {
  build();
  RecoveryManager manager(system_);
  manager.watch();

  const NodeId compromised = system_.element(domain_, 2).smiop_node();
  system_.element(domain_, 2).set_reply_mutator([](cdr::ReplyMessage reply) {
    reply.result = Value::int64(-666);
    return reply;
  });

  for (int i = 1; i <= 4; ++i) add_and_check(i);
  system_.settle();

  EXPECT_EQ(recovery_count("started"), 1u);
  EXPECT_EQ(recovery_count("completed"), 1u);
  EXPECT_EQ(recovery_count("aborted"), 0u);
  // One recovery completed, so the MTTR histogram holds exactly its time.
  const telemetry::Histogram* mttr =
      system_.sim().telemetry().metrics().find_histogram("recovery.mttr_ns");
  ASSERT_NE(mttr, nullptr);
  ASSERT_EQ(mttr->count(), 1u);
  EXPECT_GT(mttr->max(), 0u);
  EXPECT_EQ(manager.epoch(domain_), 1u);

  const core::GmStateMachine& gm = system_.gm_element(0).state();
  EXPECT_EQ(gm.expulsions(), 1u);
  EXPECT_EQ(gm.membership_epoch(domain_), 1u);
  EXPECT_TRUE(gm.is_expelled(domain_, compromised));

  // Membership is back to 3f+1 and the expelled identity never reappears.
  const core::DomainInfo* info = system_.directory().find_domain(domain_);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(gm.active_elements(*info).size(), 4u);
  const core::MembershipView* view = gm.membership_view(domain_);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->epoch, 1u);
  for (const core::MemberIdentity& member : view->members) {
    EXPECT_NE(member.smiop, compromised);
  }

  // The restored domain serves with state intact (persistent total carries
  // across the replacement).
  for (int i = 5; i <= 6; ++i) add_and_check(i);
}

TEST_F(RecoveryManagerTest, RecoveryRestoresIntrusionBudgetBetweenWaves) {
  // f-exhaustion boundary: with f=1 a second expulsion would exhaust the
  // domain's intrusion budget — unless recovery restored it in between. Two
  // sequential compromise waves against DIFFERENT ranks must both be masked,
  // detected, expelled, and healed.
  build();
  RecoveryManager manager(system_);
  manager.watch();

  system_.element(domain_, 2).set_reply_mutator([](cdr::ReplyMessage reply) {
    reply.result = Value::int64(-1);
    return reply;
  });
  for (int i = 1; i <= 4; ++i) add_and_check(i);
  system_.settle();
  ASSERT_EQ(recovery_count("completed"), 1u) << "wave 1 did not heal";

  // Wave 2 hits a different slot; the budget is whole again, so the domain
  // masks and expels this one too.
  system_.element(domain_, 1).set_reply_mutator([](cdr::ReplyMessage reply) {
    reply.result = Value::int64(-2);
    return reply;
  });
  for (int i = 5; i <= 8; ++i) add_and_check(i);
  system_.settle();

  EXPECT_EQ(recovery_count("completed"), 2u);
  EXPECT_EQ(recovery_count("failed"), 0u);
  EXPECT_EQ(manager.epoch(domain_), 2u);
  const core::GmStateMachine& gm = system_.gm_element(0).state();
  EXPECT_EQ(gm.expulsions(), 2u);
  EXPECT_EQ(gm.membership_epoch(domain_), 2u);
  const core::DomainInfo* info = system_.directory().find_domain(domain_);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(gm.active_elements(*info).size(), 4u);

  // State survived both replacements.
  for (int i = 9; i <= 10; ++i) add_and_check(i);
}

TEST_F(RecoveryManagerTest, ProactiveRotationRetiresWithoutSpendingBudget) {
  // Rejuvenating a HEALTHY element retires its identity (it may never
  // rejoin) but counts zero expulsions — rotation is not an intrusion.
  build();
  RecoveryManager manager(system_);

  const NodeId original = system_.element(domain_, 0).smiop_node();
  for (int i = 1; i <= 2; ++i) add_and_check(i);

  manager.recover_now(domain_, 0);
  system_.settle();

  EXPECT_EQ(recovery_count("completed"), 1u);
  const core::GmStateMachine& gm = system_.gm_element(0).state();
  EXPECT_EQ(gm.expulsions(), 0u);
  EXPECT_TRUE(gm.is_expelled(domain_, original))
      << "retired identity must be keyed out like an expelled one";
  EXPECT_EQ(gm.membership_epoch(domain_), 1u);

  for (int i = 3; i <= 4; ++i) add_and_check(i);
}

TEST_F(RecoveryManagerTest, WatchdogAbortsStalledOnboardingThenRetrySucceeds) {
  build();
  RecoveryConfig config;
  config.deadline_ns = millis(300);
  config.retry_backoff_ns = millis(50);
  config.max_attempts = 1;  // force a hard failure on the first stall
  RecoveryManager manager(system_, config);

  for (int i = 1; i <= 2; ++i) add_and_check(i);

  // Cut the slot's BFT endpoint off from its peers: the fresh element can be
  // admitted but never catches up, so the watchdog must fire.
  const core::DomainInfo* info = system_.directory().find_domain(domain_);
  ASSERT_NE(info, nullptr);
  std::set<NodeId> joiner{info->elements[2].bft_node};
  std::set<NodeId> peers;
  for (std::size_t rank = 0; rank < info->elements.size(); ++rank) {
    if (rank != 2) peers.insert(info->elements[rank].bft_node);
  }
  system_.network().partition(joiner, peers);

  manager.recover_now(domain_, 2);
  system_.settle();
  EXPECT_EQ(recovery_count("aborted"), 1u);
  EXPECT_EQ(recovery_count("failed"), 1u);
  EXPECT_EQ(recovery_count("completed"), 0u);
  EXPECT_FALSE(manager.busy(domain_));

  // Heal the partition (the replacement minted fresh endpoints at the same
  // slot, so re-opening the original link pairs suffices) and try again: the
  // next fresh identity completes.
  info = system_.directory().find_domain(domain_);
  ASSERT_NE(info, nullptr);
  for (NodeId b : peers) system_.network().set_link(info->elements[2].bft_node, b, true);
  manager.recover_now(domain_, 2);
  system_.settle();
  EXPECT_EQ(recovery_count("completed"), 1u);

  for (int i = 3; i <= 4; ++i) add_and_check(i);
}

// ---------------------------------------------------------------------------
// Determinism: the flagship recovery scenario is a regression artifact.
// ---------------------------------------------------------------------------

TEST(RecoveryDeterminism, ExpelReplaceRecoverTraceIsByteStablePerSeed) {
  // Two same-seed runs of the full expel -> replace -> rekey cycle must
  // export byte-identical JSONL traces (membership updates, key epochs and
  // recovery lifecycle events included).
  const fault::ScenarioResult first =
      fault::run_scenario("expel_replace_recover", 42);
  const fault::ScenarioResult second =
      fault::run_scenario("expel_replace_recover", 42);
  EXPECT_TRUE(first.clean());
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "same-seed recovery runs diverged";
  EXPECT_EQ(first.recoveries_completed, second.recoveries_completed);
  EXPECT_EQ(first.membership_updates, second.membership_updates);
  EXPECT_GE(first.recoveries_completed, 1u);
  EXPECT_NE(first.trace_jsonl.find("\"ev\":\"gm.membership_update\""),
            std::string::npos);
  EXPECT_NE(first.trace_jsonl.find("\"ev\":\"recovery.complete\""),
            std::string::npos);
}

TEST(RecoveryDeterminism, ClientReplayStormDiscardsIdenticallyEverywhere) {
  // A compromised singleton client's duplicates and replayed GIOP frames
  // must be discarded at every element by the same deterministic rule —
  // identical per-rank discard counts, zero divergence.
  const fault::ScenarioResult result =
      fault::run_scenario("client_replay_storm", 3);
  EXPECT_TRUE(result.clean());
  ASSERT_FALSE(result.element_discards.empty());
  for (std::uint64_t discards : result.element_discards) {
    EXPECT_EQ(discards, result.element_discards.front());
  }
  EXPECT_GT(result.element_discards.front(), 0u);
}

}  // namespace
}  // namespace itdos::recovery
