#include "recovery/recovery_manager.hpp"

#include "common/log.hpp"

namespace itdos::recovery {

namespace {
constexpr std::string_view kLog = "itdos.recovery";
}  // namespace

RecoveryManager::RecoveryManager(core::ItdosSystem& system, RecoveryConfig config)
    : system_(system), config_(config), tel_(&system.sim().telemetry()) {
  const core::SystemDirectory& directory = system_.directory();
  authority_ = std::make_unique<bft::Client>(
      system_.network(), directory.recovery_authority(),
      directory.gm().make_bft_config(directory.timing()), system_.keys());
  auto& reg = tel_->metrics();
  metrics_.started = &reg.counter("recovery.started");
  metrics_.completed = &reg.counter("recovery.completed");
  metrics_.aborted = &reg.counter("recovery.aborted");
  metrics_.failed = &reg.counter("recovery.failed");
  metrics_.mttr_ns = &reg.histogram("recovery.mttr_ns");
  metrics_.recovering = &reg.gauge("recovery.recovering");
}

RecoveryManager::~RecoveryManager() { *alive_ = false; }

void RecoveryManager::watch() {
  for (int i = 0; i < system_.gm_n(); ++i) {
    system_.gm_element(i).add_expulsion_observer(
        [this, alive = alive_](DomainId domain, NodeId identity) {
          if (!*alive) return;
          on_expulsion(domain, identity);
        });
  }
}

std::uint64_t RecoveryManager::epoch(DomainId domain) const {
  const auto it = epochs_.find(domain);
  return it == epochs_.end() ? 0 : it->second;
}

void RecoveryManager::on_expulsion(DomainId domain, NodeId identity) {
  // Every GM element echoes every ordered expulsion, and our own
  // membership_updates echo the retirements they cause: dedup on identity.
  if (handled_.contains({domain, identity})) return;
  handled_.insert({domain, identity});
  // The GM's own domain has no replacement path (its elements are not
  // DomainElements); only replication domains recover.
  if (domain == system_.directory().gm().id) return;
  const core::DomainInfo* info = system_.directory().find_domain(domain);
  if (info == nullptr) return;
  const int rank = info->rank_of_smiop(identity);
  if (rank < 0) return;  // identity already swapped out of the directory
  recover_now(domain, rank);
}

void RecoveryManager::set_response_policy(std::uint64_t laggard_strikes) {
  if (laggard_strikes == 0) laggard_strikes = 1;
  if (laggard_strikes == response_policy_) return;  // no-op; spare the GM
  response_policy_ = laggard_strikes;
  core::SetResponsePolicyMsg msg;
  msg.laggard_strikes = laggard_strikes;
  authority_->invoke(
      core::encode_gm_command(core::GmCommand(msg)),
      [alive = alive_, laggard_strikes](Result<Bytes> r) {
        if (!*alive) return;
        if (!r.is_ok()) return;  // BFT client retries internally until quorum
        Result<core::GmCommandResult> result =
            core::GmCommandResult::decode(r.value());
        if (result.is_ok() && !result.value().accepted) {
          ITDOS_WARN(kLog) << "GM rejected response policy "
                           << laggard_strikes << ": " << result.value().detail;
        }
      });
}

void RecoveryManager::recover_now(DomainId domain, int rank) {
  if (busy(domain)) {
    // At most one element per domain recovers at a time: taking a second
    // down would voluntarily open the very window recovery exists to close.
    auto& queue = queued_[domain];
    const auto it = active_.find(domain);
    if (it != active_.end() && it->second.rank == rank) return;
    for (const int queued_rank : queue) {
      if (queued_rank == rank) return;
    }
    queue.push_back(rank);
    return;
  }
  start(domain, rank, system_.sim().now(), /*attempt=*/1);
}

void RecoveryManager::start(DomainId domain, int rank, SimTime triggered_at,
                            int attempt) {
  const core::ItdosSystem::ReplacementTicket ticket =
      system_.admit_replacement(domain, rank);
  // Pre-mark both identities: the membership_update below echoes the
  // retirement of the old one, and a later retry would echo the retirement
  // of this fresh one — neither may re-trigger recovery.
  handled_.insert({domain, ticket.retired.smiop_node});
  handled_.insert({domain, ticket.admitted.smiop_node});

  Active active;
  active.rank = rank;
  active.attempt = attempt;
  active.retired = ticket.retired.smiop_node;
  active.admitted = ticket.admitted.smiop_node;
  active.triggered_at = triggered_at;
  active_[domain] = active;

  metrics_.started->inc();
  metrics_.recovering->set(static_cast<std::int64_t>(active_.size()));
  const NodeId authority_node = system_.directory().recovery_authority();
  tel_->trace(telemetry::TraceKind::kRecoveryStart, authority_node,
              telemetry::trace_id(ConnectionId(domain.value), RequestId(rank)),
              active.retired.value, static_cast<std::uint64_t>(attempt));
  ITDOS_INFO(kLog) << "recovery of " << domain.to_string() << " rank " << rank
                   << " attempt " << attempt << ": retiring "
                   << active.retired.to_string() << ", admitting "
                   << active.admitted.to_string();
  emit(RecoveryEvent{RecoveryEvent::Kind::kStarted, domain, rank, attempt,
                     active.retired, active.admitted, system_.sim().now(), 0, 0});

  // The ordered admission. We are the sole membership_update submitter, so
  // the epoch CAS below is against our own bookkeeping and acceptance is
  // deterministic; bump optimistically at submit time.
  core::MembershipUpdateMsg msg;
  msg.domain = domain;
  msg.rank = static_cast<std::uint32_t>(rank);
  msg.retired_element = ticket.retired.smiop_node;
  msg.admitted_element = ticket.admitted.smiop_node;
  msg.admitted_gm_client = ticket.admitted.gm_client_node;
  msg.admitted_self_client = ticket.admitted.self_client_node;
  msg.expected_epoch = epochs_[domain];
  ++epochs_[domain];
  authority_->invoke(
      core::encode_gm_command(core::GmCommand(msg)),
      [alive = alive_, domain](Result<Bytes> r) {
        if (!*alive) return;
        if (!r.is_ok()) return;  // BFT client retries internally until quorum
        Result<core::GmCommandResult> result = core::GmCommandResult::decode(r.value());
        if (result.is_ok() && !result.value().accepted) {
          ITDOS_WARN(kLog) << "GM rejected membership_update for "
                           << domain.to_string() << ": " << result.value().detail;
        }
      });

  arm_watchdog(domain);
  poll_completion(domain);
}

void RecoveryManager::arm_watchdog(DomainId domain) {
  Active& active = active_.at(domain);
  active.watchdog = system_.sim().schedule_after(
      config_.deadline_ns, [this, alive = alive_, domain] {
        if (!*alive) return;
        abort_attempt(domain);
      });
}

void RecoveryManager::poll_completion(DomainId domain) {
  const auto it = active_.find(domain);
  if (it == active_.end()) return;
  if (system_.element(domain, it->second.rank).replacement_complete()) {
    complete(domain);
    return;
  }
  it->second.poll = system_.sim().schedule_after(
      config_.poll_interval_ns, [this, alive = alive_, domain] {
        if (!*alive) return;
        poll_completion(domain);
      });
}

void RecoveryManager::complete(DomainId domain) {
  const auto it = active_.find(domain);
  if (it == active_.end()) return;
  const Active active = it->second;
  system_.sim().cancel(active.watchdog);
  system_.sim().cancel(active.poll);
  active_.erase(it);

  const std::int64_t mttr = system_.sim().now() - active.triggered_at;
  metrics_.completed->inc();
  metrics_.mttr_ns->record(mttr);
  metrics_.recovering->set(static_cast<std::int64_t>(active_.size()));
  tel_->trace(telemetry::TraceKind::kRecoveryComplete,
              system_.directory().recovery_authority(),
              telemetry::trace_id(ConnectionId(domain.value), RequestId(active.rank)),
              active.admitted.value, static_cast<std::uint64_t>(mttr));
  ITDOS_INFO(kLog) << "recovery of " << domain.to_string() << " rank "
                   << active.rank << " complete; MTTR " << mttr << "ns";
  emit(RecoveryEvent{RecoveryEvent::Kind::kCompleted, domain, active.rank,
                     active.attempt, active.retired, active.admitted,
                     system_.sim().now(), mttr, epoch(domain)});
  finish(domain);
}

void RecoveryManager::abort_attempt(DomainId domain) {
  const auto it = active_.find(domain);
  if (it == active_.end()) return;
  const Active active = it->second;
  system_.sim().cancel(active.poll);
  active_.erase(it);

  metrics_.aborted->inc();
  metrics_.recovering->set(static_cast<std::int64_t>(active_.size()));
  tel_->trace(telemetry::TraceKind::kRecoveryAbort,
              system_.directory().recovery_authority(),
              telemetry::trace_id(ConnectionId(domain.value), RequestId(active.rank)),
              active.admitted.value, static_cast<std::uint64_t>(active.attempt));
  ITDOS_WARN(kLog) << "recovery of " << domain.to_string() << " rank "
                   << active.rank << " attempt " << active.attempt
                   << " missed its deadline; aborting "
                   << active.admitted.to_string();
  emit(RecoveryEvent{RecoveryEvent::Kind::kAborted, domain, active.rank,
                     active.attempt, active.retired, active.admitted,
                     system_.sim().now(), 0, 0});

  // The half-bootstrapped fresh identity is crashed; a retry mints ANOTHER
  // fresh identity and retires this one by a further membership_update.
  system_.crash_element(domain, active.rank);
  if (active.attempt >= config_.max_attempts) {
    metrics_.failed->inc();
    ITDOS_WARN(kLog) << "recovery of " << domain.to_string() << " rank "
                     << active.rank << " gave up after " << active.attempt
                     << " attempts";
    finish(domain);
    return;
  }
  const int rank = active.rank;
  const SimTime triggered_at = active.triggered_at;
  const int next_attempt = active.attempt + 1;
  system_.sim().schedule_after(
      config_.retry_backoff_ns,
      [this, alive = alive_, domain, rank, triggered_at, next_attempt] {
        if (!*alive) return;
        if (busy(domain)) {
          // Another slot grabbed the domain meanwhile; the retry keeps its
          // place at the head of the queue.
          queued_[domain].push_front(rank);
          return;
        }
        start(domain, rank, triggered_at, next_attempt);
      });
}

void RecoveryManager::finish(DomainId domain) {
  auto& queue = queued_[domain];
  if (queue.empty()) return;
  const int rank = queue.front();
  queue.pop_front();
  start(domain, rank, system_.sim().now(), /*attempt=*/1);
}

void RecoveryManager::emit(RecoveryEvent event) {
  for (const Listener& listener : listeners_) listener(event);
}

}  // namespace itdos::recovery
