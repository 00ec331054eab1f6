// ControlLaw is the pure half of the feedback response subsystem: these are
// step-response tests over canned input traces — the law must converge
// monotonically on a sustained disturbance, hold inside its deadband, and
// never oscillate around the resting point when the disturbance clears.
// The last test covers the other half's input: the metrics registry every
// component counts into.
#include "control/controller.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bft/client.hpp"

namespace itdos::control {
namespace {

ControlConfig test_config() {
  ControlConfig config;
  config.min_period_ns = millis(100);
  config.max_period_ns = seconds(4);
  config.base_period_ns = seconds(1);
  config.depth_high = 40;
  config.depth_low = 16;
  config.delay_high_ns = millis(100);
  config.widen_pct = 150;
  config.narrow_pct = 67;
  config.conservative_strikes = 2;
  config.aggressive_strikes = 1;
  config.calm_intervals = 4;
  return config;
}

ControlInputs calm() { return ControlInputs{0, millis(1), 0}; }

ControlInputs overloaded() {
  return ControlInputs{64, millis(250), 0};
}

TEST(ControlLawTest, StartsAtRestingPosture) {
  ControlLaw law(test_config());
  EXPECT_EQ(law.period_ns(), test_config().base_period_ns);
  EXPECT_EQ(law.strikes(), test_config().conservative_strikes);
}

TEST(ControlLawTest, CalmInputNeverChangesAnything) {
  ControlLaw law(test_config());
  for (int i = 0; i < 20; ++i) {
    const ControlOutputs out = law.step(calm());
    EXPECT_FALSE(out.changed) << "step " << i;
    EXPECT_EQ(out.period_ns, test_config().base_period_ns);
    EXPECT_EQ(out.laggard_strikes, test_config().conservative_strikes);
  }
}

TEST(ControlLawTest, SustainedOverloadWidensMonotonicallyToTheCap) {
  ControlLaw law(test_config());
  std::int64_t previous = law.period_ns();
  for (int i = 0; i < 30; ++i) {
    const ControlOutputs out = law.step(overloaded());
    EXPECT_GE(out.period_ns, previous) << "widening reversed at step " << i;
    EXPECT_LE(out.period_ns, test_config().max_period_ns);
    previous = out.period_ns;
  }
  EXPECT_EQ(previous, test_config().max_period_ns)
      << "sustained overload should saturate at the cap";
}

TEST(ControlLawTest, StepResponseConvergesWithoutOscillation) {
  // Canned trace: 6 overloaded samples, then calm forever. The period must
  // rise, then decay monotonically back to base and STAY there — any
  // sign-flip after reaching base is oscillation.
  ControlLaw law(test_config());
  for (int i = 0; i < 6; ++i) law.step(overloaded());
  const std::int64_t peak = law.period_ns();
  EXPECT_GT(peak, test_config().base_period_ns);

  std::vector<std::int64_t> decay;
  for (int i = 0; i < 40; ++i) decay.push_back(law.step(calm()).period_ns);
  for (std::size_t i = 1; i < decay.size(); ++i) {
    EXPECT_LE(decay[i], decay[i - 1]) << "decay reversed at step " << i;
    EXPECT_GE(decay[i], test_config().base_period_ns)
        << "undershot the resting period at step " << i;
  }
  EXPECT_EQ(decay.back(), test_config().base_period_ns);
  // Settled: further calm steps report no change.
  EXPECT_FALSE(law.step(calm()).changed);
}

TEST(ControlLawTest, DeadbandHoldsBetweenLowAndHigh) {
  // Depth inside (low, high) with healthy latency is the hysteresis band:
  // whatever the current period, it must hold, not drift.
  ControlLaw law(test_config());
  for (int i = 0; i < 4; ++i) law.step(overloaded());
  const std::int64_t widened = law.period_ns();
  ControlInputs mid{(test_config().depth_low + test_config().depth_high) / 2,
                    millis(1), 0};
  for (int i = 0; i < 10; ++i) {
    const ControlOutputs out = law.step(mid);
    EXPECT_FALSE(out.changed) << "deadband leaked at step " << i;
    EXPECT_EQ(out.period_ns, widened);
  }
}

TEST(ControlLawTest, FirstStepOnlyBaselinesPreexistingSuspicion) {
  // Suspicion accumulated before the controller existed (counters are
  // cumulative) must not trigger aggression at startup.
  ControlLaw law(test_config());
  ControlInputs inputs = calm();
  inputs.suspicion_events = 500;
  const ControlOutputs out = law.step(inputs);
  EXPECT_FALSE(out.changed);
  EXPECT_EQ(out.laggard_strikes, test_config().conservative_strikes);
}

TEST(ControlLawTest, FreshSuspicionArmsAggressionAndCalmStandsItDown) {
  ControlLaw law(test_config());
  ControlInputs inputs = calm();
  law.step(inputs);  // prime the cumulative baseline
  inputs.suspicion_events = 3;
  const ControlOutputs armed = law.step(inputs);
  EXPECT_TRUE(armed.changed);
  EXPECT_EQ(armed.laggard_strikes, test_config().aggressive_strikes);
  // Suspicion also narrows the period: rejuvenate faster while under attack.
  EXPECT_LT(armed.period_ns, test_config().base_period_ns);

  // The stand-down needs calm_intervals suspicion-free steps — not one.
  ControlOutputs out;
  for (int i = 0; i < test_config().calm_intervals - 1; ++i) {
    out = law.step(inputs);  // counter stops moving: no fresh suspicion
    EXPECT_EQ(out.laggard_strikes, test_config().aggressive_strikes)
        << "stood down early at step " << i;
  }
  out = law.step(inputs);
  EXPECT_EQ(out.laggard_strikes, test_config().conservative_strikes);
}

TEST(ControlLawTest, SuspicionOutranksOverload) {
  // Both signals at once: the adversary wins the argument — narrow, arm.
  ControlLaw law(test_config());
  law.step(calm());
  ControlInputs both = overloaded();
  both.suspicion_events = 1;
  const ControlOutputs out = law.step(both);
  EXPECT_LT(out.period_ns, test_config().base_period_ns);
  EXPECT_EQ(out.laggard_strikes, test_config().aggressive_strikes);
}

TEST(ControlLawTest, PeriodRespectsTheConfiguredFloor) {
  ControlLaw law(test_config());
  ControlInputs inputs = calm();
  law.step(inputs);
  for (int i = 0; i < 40; ++i) {
    inputs.suspicion_events += 1;  // fresh suspicion every step
    EXPECT_GE(law.step(inputs).period_ns, test_config().min_period_ns);
  }
  EXPECT_EQ(law.period_ns(), test_config().min_period_ns);
}

TEST(ControlLawTest, StepSequenceIsDeterministic) {
  // Same input trace, same output trace — the law carries no hidden state
  // beyond what the inputs drive.
  const auto run = [] {
    ControlLaw law(test_config());
    std::vector<std::int64_t> periods;
    ControlInputs inputs = calm();
    for (int i = 0; i < 8; ++i) periods.push_back(law.step(overloaded()).period_ns);
    inputs.suspicion_events = 9;
    periods.push_back(law.step(inputs).period_ns);
    for (int i = 0; i < 8; ++i) periods.push_back(law.step(calm()).period_ns);
    return periods;
  };
  EXPECT_EQ(run(), run());
}

class Adder : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:control/Adder:1.0"; }
  void dispatch(const std::string&, const cdr::Value& arguments, orb::ServerContext&,
                orb::ReplySinkPtr sink) override {
    std::int64_t sum = 0;
    for (const cdr::Value& v : arguments.elements()) sum += v.as_int64();
    sink->reply(cdr::Value::int64(sum));
  }
};

TEST(ResponseControllerTest, ComponentCountersLandInTheRegistryButNotInSuspicion) {
  // One invocation into a firewalled domain with one lying element, one
  // packet of junk from outside the enclave, and one malformed request
  // ordered into the queue. The element, ORB and proxy counters must be in
  // the simulator's registry with the values their components counted; the
  // controller's suspicion input must still be the SMIOP counters alone.
  core::ItdosSystem system;
  const DomainId domain =
      system.add_domain(1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        (void)adapter.activate_with_key(ObjectId(1), std::make_shared<Adder>());
      });
  system.protect_with_firewall(domain);
  system.element(domain, 3).set_reply_mutator([](cdr::ReplyMessage reply) {
    reply.result = cdr::Value::int64(-1);
    return reply;
  });
  core::ItdosClient& client = system.add_client();
  system.network().send(NodeId(99999), system.element(domain, 0).smiop_node(),
                        to_bytes("JUNK"));
  const Result<cdr::Value> sum = system.invoke_sync(
      client, system.object_ref(domain, ObjectId(1), "IDL:control/Adder:1.0"), "add",
      cdr::Value::sequence({cdr::Value::int64(40), cdr::Value::int64(2)}));
  ASSERT_TRUE(sum.is_ok()) << sum.status().to_string();
  EXPECT_EQ(sum.value().as_int64(), 42);
  bft::Client rogue(system.network(), NodeId(777777),
                    system.directory().find_domain(domain)->make_bft_config(
                        system.directory().timing()),
                    system.keys());
  rogue.invoke(to_bytes("\x01 not really an ordered msg"), [](Result<Bytes>) {});
  system.settle();

  const telemetry::MetricsRegistry& reg = system.sim().telemetry().metrics();
  const auto expect_count = [&](const std::string& name, std::uint64_t value) {
    ASSERT_TRUE(reg.counters().contains(name)) << name << " is not registered";
    EXPECT_EQ(reg.counter_value(name), value) << name;
  };
  for (int rank = 0; rank < system.domain_n(domain); ++rank) {
    const NodeId element = system.element(domain, rank).smiop_node();
    expect_count(telemetry::metric_name("element", element, "requests_executed"), 1);
    expect_count(telemetry::metric_name("element", element, "entries_discarded"), 1);
  }
  expect_count(telemetry::metric_name("orb", client.smiop_node(), "requests_sent"), 1);
  expect_count(telemetry::metric_name("proxy", domain, "admitted"), 78);
  expect_count(telemetry::metric_name("proxy", domain, "dropped_malformed"), 1);

  recovery::RecoveryManager manager(system);
  recovery::ProactiveScheduler scheduler(manager, seconds(1));
  const ResponseController controller(system, manager, scheduler, {});
  std::uint64_t smiop_suspicion = 0;
  for (const auto& [name, counter] : reg.counters()) {
    if (name.starts_with("smiop.") &&
        (name.ends_with(".faults_detected") || name.ends_with(".votes_timed_out") ||
         name.ends_with(".change_requests_sent"))) {
      smiop_suspicion += counter.value();
    }
  }
  EXPECT_GT(smiop_suspicion, 0u) << "the lying element went unnoticed";
  EXPECT_EQ(controller.read_inputs().suspicion_events, smiop_suspicion);
}

}  // namespace
}  // namespace itdos::control
