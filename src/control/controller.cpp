#include "control/controller.hpp"

#include "common/log.hpp"

namespace itdos::control {

namespace {
constexpr std::string_view kLog = "itdos.control";

std::int64_t scale_pct(std::int64_t v, std::uint32_t pct) {
  return v / 100 * static_cast<std::int64_t>(pct) +
         v % 100 * static_cast<std::int64_t>(pct) / 100;
}

std::int64_t clamp(std::int64_t v, std::int64_t lo, std::int64_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace

ControlLaw::ControlLaw(ControlConfig config)
    : config_(config),
      period_ns_(config.base_period_ns),
      strikes_(config.conservative_strikes) {}

ControlOutputs ControlLaw::step(const ControlInputs& inputs) {
  const std::int64_t prev_period = period_ns_;
  const std::uint64_t prev_strikes = strikes_;

  // Difference the cumulative suspicion counter. The first step only
  // baselines it: suspicion accumulated before the controller existed must
  // not trigger an adjustment the moment it starts.
  std::uint64_t suspicion_delta = 0;
  if (primed_ && inputs.suspicion_events >= last_suspicion_) {
    suspicion_delta = inputs.suspicion_events - last_suspicion_;
  }
  last_suspicion_ = inputs.suspicion_events;
  primed_ = true;

  const bool overloaded = inputs.queue_depth >= config_.depth_high ||
                          inputs.delay_p99_ns >= config_.delay_high_ns;
  const bool calm_depth = inputs.queue_depth <= config_.depth_low;

  // LOCAL level. Suspicion outranks overload: an active adversary is the
  // one condition rejuvenation exists for.
  if (suspicion_delta > 0) {
    period_ns_ = scale_pct(period_ns_, config_.narrow_pct);
  } else if (overloaded) {
    period_ns_ = scale_pct(period_ns_, config_.widen_pct);
  } else if (calm_depth && period_ns_ != config_.base_period_ns) {
    // Relax toward the resting period, one narrow/widen step at a time, and
    // stop AT base — overshoot here is what oscillation is made of.
    if (period_ns_ > config_.base_period_ns) {
      const std::int64_t next = scale_pct(period_ns_, config_.narrow_pct);
      period_ns_ = next < config_.base_period_ns ? config_.base_period_ns : next;
    } else {
      const std::int64_t next = scale_pct(period_ns_, config_.widen_pct);
      period_ns_ = next > config_.base_period_ns ? config_.base_period_ns : next;
    }
  }
  period_ns_ = clamp(period_ns_, config_.min_period_ns, config_.max_period_ns);

  // GLOBAL level: fresh suspicion arms the aggressive policy; a run of calm
  // intervals stands back down to conservative.
  if (suspicion_delta > 0) {
    calm_streak_ = 0;
    strikes_ = config_.aggressive_strikes;
  } else if (strikes_ != config_.conservative_strikes &&
             ++calm_streak_ >= config_.calm_intervals) {
    strikes_ = config_.conservative_strikes;
    calm_streak_ = 0;
  }

  ControlOutputs out;
  out.period_ns = period_ns_;
  out.laggard_strikes = strikes_;
  out.changed = period_ns_ != prev_period || strikes_ != prev_strikes;
  return out;
}

ResponseController::ResponseController(core::ItdosSystem& system,
                                       recovery::RecoveryManager& manager,
                                       recovery::ProactiveScheduler& scheduler,
                                       ResponseControllerOptions options)
    : system_(system),
      manager_(manager),
      scheduler_(scheduler),
      options_(options),
      law_(options.law) {
  auto& reg = system_.sim().telemetry().metrics();
  period_gauge_ = &reg.gauge("control.period_ns");
  strikes_gauge_ = &reg.gauge("control.strikes");
}

ResponseController::~ResponseController() { system_.sim().cancel_owned(this); }

void ResponseController::start() {
  if (running_) return;
  running_ = true;
  // Assert the baseline posture immediately: the scheduler gets the law's
  // resting period and the GM the conservative strike policy, so a run with
  // a controller differs from one without it from t=0, not from the first
  // disturbance.
  ++adjustments_;
  scheduler_.set_period(law_.period_ns());
  manager_.set_response_policy(law_.strikes());
  period_gauge_->set(law_.period_ns());
  strikes_gauge_->set(static_cast<std::int64_t>(law_.strikes()));
  system_.sim().telemetry().trace(
      telemetry::TraceKind::kControlAdjust,
      system_.directory().recovery_authority(),
      telemetry::trace_id(ConnectionId(0), RequestId(adjustments_)),
      static_cast<std::uint64_t>(law_.period_ns()), law_.strikes());
  tick_ = system_.sim().schedule_after(options_.interval_ns, [this] { tick(); }, this);
}

void ResponseController::stop() {
  if (!running_) return;
  running_ = false;
  system_.sim().cancel(tick_);
}

ControlInputs ResponseController::read_inputs() const {
  const auto& reg = system_.sim().telemetry().metrics();
  ControlInputs in;
  for (const auto& [name, gauge] : reg.gauges()) {
    if (name.starts_with("queue.") && name.ends_with(".depth") &&
        gauge.value() > 0 &&
        static_cast<std::uint64_t>(gauge.value()) > in.queue_depth) {
      in.queue_depth = static_cast<std::uint64_t>(gauge.value());
    }
  }
  if (const telemetry::Histogram* lat = reg.find_histogram("smiop.request_latency_ns")) {
    in.delay_p99_ns = static_cast<std::int64_t>(lat->percentile(99.0));
  }
  for (const auto& [name, counter] : reg.counters()) {
    if (name.ends_with(".faults_detected") || name.ends_with(".votes_timed_out") ||
        name.ends_with(".change_requests_sent")) {
      in.suspicion_events += counter.value();
    }
  }
  return in;
}

void ResponseController::tick() {
  if (!running_) return;
  const ControlInputs inputs = read_inputs();
  const ControlOutputs out = law_.step(inputs);
  if (out.changed) {
    ++adjustments_;
    scheduler_.set_period(out.period_ns);
    manager_.set_response_policy(out.laggard_strikes);
    period_gauge_->set(out.period_ns);
    strikes_gauge_->set(static_cast<std::int64_t>(out.laggard_strikes));
    system_.sim().telemetry().trace(
        telemetry::TraceKind::kControlAdjust,
        system_.directory().recovery_authority(),
        telemetry::trace_id(ConnectionId(0), RequestId(adjustments_)),
        static_cast<std::uint64_t>(out.period_ns), out.laggard_strikes);
    ITDOS_INFO(kLog) << "control adjust: depth=" << inputs.queue_depth
                     << " p99=" << inputs.delay_p99_ns << "ns suspicion="
                     << inputs.suspicion_events << " -> period="
                     << out.period_ns << "ns strikes=" << out.laggard_strikes;
  }
  tick_ = system_.sim().schedule_after(options_.interval_ns, [this] { tick(); }, this);
}

}  // namespace itdos::control
