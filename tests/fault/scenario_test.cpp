// The canned fault scenarios as ctest cases: every scenario × seed must end
// with ZERO oracle violations and full client liveness, and the flagship
// detection scenario (expel_rekey_e2e) must demonstrate detection, expulsion
// and rekey end-to-end with a byte-stable same-seed trace.
#include "fault/scenario.hpp"

#include <gtest/gtest.h>

namespace itdos::fault {
namespace {

std::string describe(const ScenarioResult& result) {
  std::string out = result.name + " seed=" + std::to_string(result.seed) +
                    ": completed " + std::to_string(result.requests_completed) +
                    "/" + std::to_string(result.requests_sent);
  for (const Violation& v : result.violations) {
    out += "\n  violation: ";
    out += violation_kind_name(v.kind);
    out += " — " + v.detail;
  }
  return out;
}

using ScenarioCase = std::tuple<std::string, std::uint64_t>;

class FaultScenarioTest : public ::testing::TestWithParam<ScenarioCase> {};

TEST_P(FaultScenarioTest, NoViolationsAndFullLiveness) {
  const auto& [name, seed] = GetParam();
  const ScenarioResult result = run_scenario(name, seed);
  EXPECT_TRUE(result.clean()) << describe(result);
  EXPECT_EQ(result.requests_completed, result.requests_sent)
      << describe(result);
  EXPECT_FALSE(result.trace_jsonl.empty());
}

std::string case_name(const ::testing::TestParamInfo<ScenarioCase>& info) {
  return std::get<0>(info.param) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, FaultScenarioTest,
    ::testing::Combine(::testing::ValuesIn(scenario_names()),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2})),
    case_name);

// ---------------------------------------------------------------------------
// Scenario-specific assertions beyond "clean and live".
// ---------------------------------------------------------------------------

TEST(FaultScenarioDetail, PartitionedPrimaryForcesAViewChange) {
  const ScenarioResult result = run_scenario("partition_primary", 1);
  EXPECT_GE(result.view_changes, 1u) << describe(result);
}

TEST(FaultScenarioDetail, EquivocatingPrimaryIsVotedOut) {
  const ScenarioResult result = run_scenario("equivocating_primary", 1);
  EXPECT_GE(result.view_changes, 1u) << describe(result);
}

TEST(FaultScenarioDetail, StaleReplaysAreDiscardedWithoutExtraViewChanges) {
  // Phase 1 legitimately advances the view; the replayed stale VIEW-CHANGEs
  // in phase 2 must not cascade into more new-views than the partition
  // itself caused (one per replica adopting, possibly a couple of attempts).
  const ScenarioResult result = run_scenario("stale_view_replay", 1);
  EXPECT_GE(result.view_changes, 1u) << describe(result);
  EXPECT_LE(result.view_changes, 12u) << describe(result);
}

TEST(FaultScenarioDetail, ExpelRekeyEndToEnd) {
  // §3.6 detection -> expulsion, §3.5 rekey — the paper's full tolerance
  // pipeline, under the oracle's safety checks throughout.
  const ScenarioResult result = run_scenario("expel_rekey_e2e", 1);
  EXPECT_TRUE(result.clean()) << describe(result);
  EXPECT_TRUE(result.detection) << describe(result);
  EXPECT_GE(result.expulsions, 1u);
  EXPECT_GE(result.rekeys, 1u);
  EXPECT_NE(result.trace_jsonl.find("\"ev\":\"gm.expulsion\""),
            std::string::npos);
  EXPECT_NE(result.trace_jsonl.find("\"ev\":\"gm.rekey\""), std::string::npos);
  EXPECT_NE(result.trace_jsonl.find("\"ev\":\"epoch.rekey\""),
            std::string::npos);
}

TEST(FaultScenarioDetail, ExpelRekeyTraceIsByteStablePerSeed) {
  // The trace stream of a FAULTY run is itself a regression artifact: two
  // same-seed runs must export byte-identical JSONL.
  const ScenarioResult first = run_scenario("expel_rekey_e2e", 77);
  const ScenarioResult second = run_scenario("expel_rekey_e2e", 77);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "same-seed fault runs diverged";
  EXPECT_EQ(first.requests_completed, second.requests_completed);
  EXPECT_EQ(first.expulsions, second.expulsions);
}

TEST(FaultScenarioDetail, ClusterScenarioTraceIsByteStablePerSeed) {
  const ScenarioResult first = run_scenario("drop_storm", 9);
  const ScenarioResult second = run_scenario("drop_storm", 9);
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);
}

TEST(FaultScenarioDetail, BogusChangeRequestNeverExpelsTheVictim) {
  const ScenarioResult result = run_scenario("bogus_change_request", 1);
  EXPECT_TRUE(result.clean()) << describe(result);
  EXPECT_EQ(result.expulsions, 0u)
      << "a lone rogue reporter framed a correct element";
  EXPECT_FALSE(result.detection);
}

TEST(FaultScenarioDetail, CrossDomainPartitionHealsWithoutExpulsion) {
  // The stall is the NETWORK's fault: once the inter-domain partition heals
  // the pending nested transfer must complete, and no element of either
  // domain may have been expelled for lagging through it.
  const ScenarioResult result = run_scenario("cross_domain_partition_mid_call", 1);
  EXPECT_TRUE(result.clean()) << describe(result);
  EXPECT_EQ(result.requests_completed, result.requests_sent) << describe(result);
  EXPECT_EQ(result.expulsions, 0u) << describe(result);
  EXPECT_FALSE(result.detection);
}

TEST(FaultScenarioDetail, CalleeDissenterIsExpelledWhileCallerWaits) {
  // Replicated tellers are the REPORTERS here: each element's voter sees
  // the callee dissenter, and the GM's f+1-matching-reports rule turns the
  // reports into an expulsion — without the client ever seeing a wrong
  // balance.
  const ScenarioResult result = run_scenario("callee_expulsion_mid_nested_call", 1);
  EXPECT_TRUE(result.clean()) << describe(result);
  EXPECT_TRUE(result.detection) << describe(result);
  EXPECT_GE(result.expulsions, 1u) << describe(result);
  EXPECT_GE(result.rekeys, 1u) << describe(result);
}

TEST(FaultScenarioDetail, ViewSpansAppearInClusterTraces) {
  // Every replica opens its view-0 span at construction; a forced view
  // change closes it and opens the next (telemetry satellites).
  const ScenarioResult result = run_scenario("partition_primary", 1);
  EXPECT_NE(result.trace_jsonl.find("\"ev\":\"view.start\""),
            std::string::npos);
  EXPECT_NE(result.trace_jsonl.find("\"ev\":\"view.end\""), std::string::npos);
}

TEST(FaultScenarioDetail, UnknownScenarioThrows) {
  EXPECT_THROW(run_scenario("no_such_scenario", 1), std::invalid_argument);
}

TEST(FaultScenarioDetail, ScenarioListIsStable) {
  const std::vector<std::string> names = scenario_names();
  EXPECT_GE(names.size(), 22u);
  EXPECT_EQ(names.front(), "drop_storm");
  EXPECT_EQ(names.back(), "adaptive_adversary_vs_controller");
}

TEST(FaultScenarioDetail, AdmissionShedsUnderOverloadWithoutStarving) {
  // Admission control must actually fire (the burst is sized past
  // max_depth), every shed must surface as a voted OVERLOAD — and the
  // scenario's post-heal serial requests prove shedding ended with the
  // burst: "no" is allowed, "no forever" is starvation.
  const ScenarioResult result = run_scenario("adaptive_adversary_overload", 1);
  EXPECT_TRUE(result.clean()) << describe(result);
  EXPECT_EQ(result.requests_completed, result.requests_sent)
      << describe(result);
  EXPECT_GT(result.sheds, 0u) << "overload burst never tripped admission";
  EXPECT_GT(result.overloads, 0u)
      << "sheds were not voted through to any client";
  EXPECT_GE(result.adaptive_retargets, 1u);
  EXPECT_NE(result.trace_jsonl.find("\"ev\":\"admission.shed\""),
            std::string::npos);
  EXPECT_NE(result.trace_jsonl.find("\"ev\":\"adversary.retarget\""),
            std::string::npos);
}

TEST(FaultScenarioDetail, ControllerAdjustsUnderAdaptiveAdversary) {
  // The feedback controller must take at least its baseline action plus a
  // reaction to the dissent-driven suspicion, each ordered through the GM
  // (gm.policy) and traced (control.adjust).
  const ScenarioResult result =
      run_scenario("adaptive_adversary_vs_controller", 1);
  EXPECT_TRUE(result.clean()) << describe(result);
  EXPECT_GE(result.control_adjustments, 2u) << describe(result);
  EXPECT_GE(result.expulsions, 1u) << "the dissenting element survived";
  EXPECT_NE(result.trace_jsonl.find("\"ev\":\"control.adjust\""),
            std::string::npos);
  EXPECT_NE(result.trace_jsonl.find("\"ev\":\"gm.policy\""),
            std::string::npos);
}

TEST(FaultScenarioDetail, ResultSurvivesASlotWhoseRecoveryGaveUp) {
  // At seed 28 every fresh identity for rank 1 misses its onboarding
  // deadline and the manager gives up, leaving that slot crashed at the end
  // of the run. The result is still filled: the crashed slot counts no
  // discards.
  const ScenarioResult result = run_scenario("proactive_rejuvenation", 28);
  EXPECT_EQ(result.recoveries_aborted, 3u) << describe(result);
  ASSERT_EQ(result.element_discards.size(), 4u);
  EXPECT_EQ(result.element_discards[1], 0u);
}

TEST(FaultScenarioDetail, AdaptiveScenarioTracesAreByteStablePerSeed) {
  // The adversary aims off live gauges and the controller actuates off live
  // histograms — both still have to replay byte-identically from the seed.
  for (const char* name :
       {"adaptive_adversary_overload", "adaptive_adversary_vs_controller"}) {
    const ScenarioResult first = run_scenario(name, 3);
    const ScenarioResult second = run_scenario(name, 3);
    EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
        << name << ": same-seed runs diverged";
    EXPECT_EQ(first.sheds, second.sheds) << name;
    EXPECT_EQ(first.adaptive_retargets, second.adaptive_retargets) << name;
  }
}

}  // namespace
}  // namespace itdos::fault
