#include "recovery/proactive.hpp"

namespace itdos::recovery {

ProactiveScheduler::~ProactiveScheduler() { manager_.system().sim().cancel_owned(this); }

void ProactiveScheduler::add_domain(DomainId domain, int n) {
  for (int rank = 0; rank < n; ++rank) slots_.emplace_back(domain, rank);
}

void ProactiveScheduler::start() {
  if (running_ || slots_.empty()) return;
  running_ = true;
  tick_ = manager_.system().sim().schedule_after(period_ns_, [this] { tick(); }, this);
}

void ProactiveScheduler::stop() {
  if (!running_) return;
  running_ = false;
  manager_.system().sim().cancel(tick_);
}

void ProactiveScheduler::tick() {
  if (!running_) return;
  // One slot per tick, round-robin; a domain mid-recovery is skipped rather
  // than queued behind itself (its turn comes round again).
  for (std::size_t probe = 0; probe < slots_.size(); ++probe) {
    const auto [domain, rank] = slots_[cursor_];
    cursor_ = (cursor_ + 1) % slots_.size();
    if (manager_.busy(domain)) continue;
    ++initiated_;
    manager_.system().sim().telemetry().trace(
        telemetry::TraceKind::kRecoveryProactive,
        manager_.system().directory().recovery_authority(),
        telemetry::trace_id(ConnectionId(domain.value), RequestId(rank)),
        domain.value, static_cast<std::uint64_t>(rank));
    manager_.recover_now(domain, rank);
    break;
  }
  tick_ = manager_.system().sim().schedule_after(period_ns_, [this] { tick(); }, this);
}

}  // namespace itdos::recovery
