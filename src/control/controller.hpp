// Feedback-driven intrusion response (DESIGN.md §6f). Closes the loop
// between live telemetry and the recovery subsystem's two actuators:
//
//   * LOCAL level — the proactive rejuvenation period. Rejuvenation is the
//     right defence against dormant compromise but each rotation costs a
//     replica for its MTTR; under overload that capacity matters more than
//     exposure, so the controller slows rotation when queues/latency climb
//     and speeds it back up when suspicion events (vote faults, timeouts,
//     change requests) say an adversary is active.
//   * GLOBAL level — the GM's suspicion-expulsion threshold
//     (SetResponsePolicy): conservative (2 strikes) in calm, aggressive
//     (1 strike) while suspicion is fresh, so a noisy-but-honest laggard is
//     not expelled on one incident yet an active intruder is cut fast.
//
// Split in two layers so the decision logic is testable without a simulator:
//   * ControlLaw    — a pure, deterministic step function over sampled
//     inputs. No clocks, no telemetry, no side effects.
//   * ResponseController — samples the metrics registry on a sim timer,
//     feeds the law, applies its outputs to ProactiveScheduler /
//     RecoveryManager, and traces every adjustment (control.adjust).
//
// Determinism contract: inputs come only from replicated/deterministic
// telemetry (queue depth gauges, latency histograms, counters), the law is
// pure integer/compare logic with multiplicative gains, and actuation goes
// through the ordered GM command path — so a controller run is a pure
// function of the seed, like everything else in the simulation. The
// controller deliberately does NOT touch admission max_depth: that bound is
// replicated static configuration (DET: elements may not read local load).
#pragma once

#include "itdos/system.hpp"
#include "recovery/proactive.hpp"

namespace itdos::control {

/// One sample of the signals the law reacts to.
struct ControlInputs {
  std::uint64_t queue_depth = 0;       // max replicated queue depth, any element
  std::int64_t delay_p99_ns = 0;       // voted-reply latency p99 (smiop)
  std::uint64_t suspicion_events = 0;  // CUMULATIVE faults+timeouts+changes
};

struct ControlConfig {
  // Local level: rejuvenation period bounds and resting point, ns.
  std::int64_t min_period_ns = millis(100);
  std::int64_t max_period_ns = seconds(4);
  std::int64_t base_period_ns = seconds(1);
  // Overload deadband on queue depth: widen at/above high, relax toward
  // base at/below low, hold in between (hysteresis kills oscillation).
  // NOTE: queue depth includes entries awaiting ordered GC, which lags
  // consumption by up to ~2x ack_interval per element — the band sits above
  // that residual, not at zero.
  std::uint64_t depth_high = 40;
  std::uint64_t depth_low = 16;
  std::int64_t delay_high_ns = millis(100);  // p99 above this also = overload
  // Multiplicative gains, percent. widen > 100 (slow down rotation under
  // load), narrow < 100 (speed it up under suspicion / relax toward base).
  std::uint32_t widen_pct = 150;
  std::uint32_t narrow_pct = 67;
  // Global level: GM suspicion-expulsion strikes.
  std::uint64_t conservative_strikes = 2;
  std::uint64_t aggressive_strikes = 1;
  int calm_intervals = 4;  // suspicion-free steps before relaxing strikes
};

struct ControlOutputs {
  std::int64_t period_ns = 0;
  std::uint64_t laggard_strikes = 0;
  bool changed = false;  // either output differs from the previous step
};

/// Pure two-level control law. step() is deterministic: the output sequence
/// is a function of the config and the input sequence alone.
class ControlLaw {
 public:
  explicit ControlLaw(ControlConfig config);

  ControlOutputs step(const ControlInputs& inputs);

  std::int64_t period_ns() const { return period_ns_; }
  std::uint64_t strikes() const { return strikes_; }
  const ControlConfig& config() const { return config_; }

 private:
  ControlConfig config_;
  std::int64_t period_ns_;
  std::uint64_t strikes_;
  std::uint64_t last_suspicion_ = 0;  // to difference the cumulative input
  int calm_streak_ = 0;
  bool primed_ = false;  // first step only baselines the suspicion counter
};

struct ResponseControllerOptions {
  std::int64_t interval_ns = millis(50);  // sampling/actuation cadence
  ControlConfig law;
};

/// Binds a ControlLaw to a running deployment: samples the registry each
/// interval, actuates the scheduler and the recovery manager's GM policy.
class ResponseController {
 public:
  ResponseController(core::ItdosSystem& system,
                     recovery::RecoveryManager& manager,
                     recovery::ProactiveScheduler& scheduler,
                     ResponseControllerOptions options);
  ~ResponseController();

  void start();
  void stop();

  /// Adjustments actually applied (law steps with changed=true).
  std::uint64_t adjustments() const { return adjustments_; }
  const ControlLaw& law() const { return law_; }

  /// The registry sample the controller would act on right now (exposed for
  /// tests and the adaptive adversary, which reads the same signals).
  ControlInputs read_inputs() const;

 private:
  void tick();

  core::ItdosSystem& system_;
  recovery::RecoveryManager& manager_;
  recovery::ProactiveScheduler& scheduler_;
  ResponseControllerOptions options_;
  ControlLaw law_;
  bool running_ = false;
  net::EventHandle tick_{};
  std::uint64_t adjustments_ = 0;
  telemetry::Gauge* period_gauge_;   // control.period_ns
  telemetry::Gauge* strikes_gauge_;  // control.strikes
};

}  // namespace itdos::control
