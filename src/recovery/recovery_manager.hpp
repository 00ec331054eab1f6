// Proactive recovery & expelled-replica replacement (DESIGN.md §6d).
//
// The paper's §4 leaves replacement of expelled elements as future work, and
// with it the window-of-vulnerability problem: every expulsion permanently
// spends one unit of a domain's intrusion budget f, so a patient adversary
// who compromises elements faster than operators re-provision them
// eventually holds f+1 and the domain is lost. This subsystem closes that
// loop mechanically:
//
//   * detection  — the manager subscribes to every GM element's expulsion
//     observer; the first echo of an ordered expulsion triggers recovery;
//   * replacement — a FRESH identity (new SMIOP / GM-client / self-client
//     endpoints, fresh signing keys; the BFT slot address is reused) is
//     spawned via ItdosSystem::admit_replacement and bootstraps exactly like
//     a crash replacement: BFT catch-up, then f+1 byte-identical state
//     bundles, then an ordered sync point;
//   * admission  — the manager, acting as the deployment's recovery
//     authority, submits a totally ordered membership_update to the GM. The
//     GM retires the old identity, admits the fresh one at the same rank,
//     bumps the domain's membership epoch, and rekeys every connection of
//     the domain under proactively refreshed DPRF sub-keys — so the expelled
//     identity is keyed out of all communication groups AND cannot re-enter
//     under its old name (stale identities fail the epoch CAS);
//   * watchdog   — recovery that does not complete by the configured
//     deadline is aborted: the half-bootstrapped element is crashed and the
//     attempt retried with ANOTHER fresh identity, up to a bounded number of
//     attempts, each retirement itself an ordered membership_update.
//
// At most one element per domain recovers at a time (further requests
// queue), so a domain never voluntarily drops below 3f of 3f+1 live
// elements — the recovery process itself must not open the very window it
// exists to close.
#pragma once

#include <deque>

#include "itdos/system.hpp"

namespace itdos::recovery {

struct RecoveryConfig {
  std::int64_t deadline_ns = seconds(2);       // watchdog: abort after this
  std::int64_t retry_backoff_ns = millis(100); // wait before a retry attempt
  std::int64_t poll_interval_ns = millis(5);   // completion poll cadence
  int max_attempts = 3;                        // fresh identities tried per slot

  /// Defaults from the deployment's protocol timing.
  static RecoveryConfig from_timing(const core::ProtocolTiming& timing) {
    RecoveryConfig config;
    config.deadline_ns = timing.recovery_deadline_ns;
    config.retry_backoff_ns = timing.recovery_retry_backoff_ns;
    return config;
  }
};

/// One recovery lifecycle transition, delivered to listeners (the fault
/// oracle learns deadlines and overlap budgets from these; benches measure
/// MTTR from them).
struct RecoveryEvent {
  enum class Kind : std::uint8_t { kStarted, kCompleted, kAborted };

  Kind kind{};
  DomainId domain;
  int rank = 0;
  int attempt = 0;           // 1-based
  NodeId retired;            // identity that left the slot
  NodeId admitted;           // fresh identity (kStarted/kCompleted)
  SimTime t{};               // simulation time of the transition
  std::int64_t mttr_ns = 0;  // kCompleted: trigger -> restored 3f+1
  std::uint64_t member_epoch = 0;  // kCompleted: domain epoch after admission
};

/// Drives expel -> replace -> rekey cycles against one ItdosSystem. Owns the
/// recovery-authority BFT client toward the GM group; the GM state machine
/// accepts membership_update commands from this identity only.
class RecoveryManager {
 public:
  using Listener = std::function<void(const RecoveryEvent&)>;

  RecoveryManager(core::ItdosSystem& system, RecoveryConfig config);
  explicit RecoveryManager(core::ItdosSystem& system)
      : RecoveryManager(system,
                        RecoveryConfig::from_timing(system.directory().timing())) {}
  ~RecoveryManager();

  /// Subscribes to every GM element's expulsion observer: from here on,
  /// ordered expulsions trigger replacement automatically.
  void watch();

  /// Manually triggers recovery of a slot (proactive rejuvenation, or
  /// crash replacement without an expulsion). Queues if the domain is
  /// already recovering.
  void recover_now(DomainId domain, int rank);

  void add_listener(Listener listener) { listeners_.push_back(std::move(listener)); }

  /// True while an element of `domain` is mid-recovery.
  bool busy(DomainId domain) const { return active_.contains(domain); }

  const RecoveryConfig& config() const { return config_; }
  core::ItdosSystem& system() { return system_; }

  /// The membership epoch this manager has driven `domain` to (it is the
  /// sole submitter of membership_updates, so this tracks the GM's
  /// replicated epoch exactly).
  std::uint64_t epoch(DomainId domain) const;

  /// Submits an ordered SetResponsePolicy command to the GM (the §6f
  /// feedback controller's global actuator): suspicion-based expulsions will
  /// need `laggard_strikes` completed f+1 quorum tallies. Only this manager
  /// holds the recovery-authority identity the GM accepts it from.
  void set_response_policy(std::uint64_t laggard_strikes);

  /// Last policy submitted through set_response_policy (1 = baseline).
  std::uint64_t response_policy() const { return response_policy_; }

 private:
  struct Active {
    int rank = 0;
    int attempt = 0;
    NodeId retired;            // identity the current attempt replaces
    NodeId admitted;           // fresh identity of the current attempt
    SimTime triggered_at{};    // first trigger (MTTR measures from here)
    net::EventHandle watchdog{};
    net::EventHandle poll{};
  };

  void on_expulsion(DomainId domain, NodeId identity);
  void start(DomainId domain, int rank, SimTime triggered_at, int attempt);
  void arm_watchdog(DomainId domain);
  void poll_completion(DomainId domain);
  void complete(DomainId domain);
  void abort_attempt(DomainId domain);
  void finish(DomainId domain);  // pop the domain's queue, start next slot
  void emit(RecoveryEvent event);

  core::ItdosSystem& system_;
  RecoveryConfig config_;
  std::unique_ptr<bft::Client> authority_;  // recovery-authority identity

  std::map<DomainId, Active> active_;
  std::map<DomainId, std::deque<int>> queued_;          // ranks awaiting a slot
  std::map<DomainId, std::uint64_t> epochs_;            // driven membership epochs
  std::uint64_t response_policy_ = 1;                   // last submitted strikes
  std::set<std::pair<DomainId, NodeId>> handled_;       // dedup observer echoes
  std::vector<Listener> listeners_;

  telemetry::Hub* tel_;
  struct {
    telemetry::Counter* started;
    telemetry::Counter* completed;
    telemetry::Counter* aborted;   // watchdog aborts (individual attempts)
    telemetry::Counter* failed;    // slots given up after max_attempts
    telemetry::Histogram* mttr_ns;
    telemetry::Gauge* recovering;  // slots mid-recovery, all domains
  } metrics_{};

  // The watchdog destroys elements and reschedules itself; lambdas in the
  // simulator hold a copy of this flag and become no-ops once the manager
  // is gone.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace itdos::recovery
