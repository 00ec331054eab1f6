// Proactive rejuvenation scheduler (DESIGN.md §6d).
//
// Waiting for detection means waiting for an intrusion to MANIFEST; a
// dormant compromise spends no budget until it strikes. Periodic restart
// from certified state bounds that exposure: every element is routinely
// retired and replaced with a fresh identity — new endpoints, fresh signing
// keys, state re-certified by f+1 peers, every connection of its domain
// rekeyed — whether or not anything looked wrong. An adversary must then
// compromise f+1 elements WITHIN one rejuvenation period rather than over
// the deployment's lifetime.
//
// Rounds are staggered: one slot per tick, round-robin across all
// registered slots, skipping domains already mid-recovery — so the
// scheduler never takes a second element of a domain down and live traffic
// keeps flowing on the remaining 3f elements.
#pragma once

#include "recovery/recovery_manager.hpp"

namespace itdos::recovery {

class ProactiveScheduler {
 public:
  ProactiveScheduler(RecoveryManager& manager, std::int64_t period_ns)
      : manager_(manager), period_ns_(period_ns) {}
  ~ProactiveScheduler();

  /// Registers every rank of a 3f+1 domain for rotation.
  void add_domain(DomainId domain, int n);

  void start();
  void stop();

  /// Rejuvenations initiated so far.
  std::uint64_t initiated() const { return initiated_; }

  /// Runtime retune (the §6f feedback controller's local actuator): the new
  /// period takes effect when the CURRENT tick re-arms — never mid-wait, so
  /// the schedule stays a pure function of the adjustment history.
  void set_period(std::int64_t period_ns) { period_ns_ = period_ns; }
  std::int64_t period_ns() const { return period_ns_; }

 private:
  void tick();

  RecoveryManager& manager_;
  std::int64_t period_ns_;
  std::vector<std::pair<DomainId, int>> slots_;  // (domain, rank) rotation
  std::size_t cursor_ = 0;
  bool running_ = false;
  net::EventHandle tick_{};
  std::uint64_t initiated_ = 0;
};

}  // namespace itdos::recovery
