#include "telemetry/trace.hpp"

#include <algorithm>

namespace itdos::telemetry {

std::string_view trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kBftRequest:
      return "bft.request";
    case TraceKind::kBftPrePrepare:
      return "bft.pre_prepare";
    case TraceKind::kBftPrepare:
      return "bft.prepare";
    case TraceKind::kBftCommit:
      return "bft.commit";
    case TraceKind::kBftExecute:
      return "bft.execute";
    case TraceKind::kBftCheckpoint:
      return "bft.checkpoint";
    case TraceKind::kBftViewChange:
      return "bft.view_change";
    case TraceKind::kBftNewView:
      return "bft.new_view";
    case TraceKind::kBftStateTransfer:
      return "bft.state_transfer";
    case TraceKind::kSmiopConnectStart:
      return "smiop.connect_start";
    case TraceKind::kSmiopConnectOpen:
      return "smiop.connect_open";
    case TraceKind::kSmiopRequestSent:
      return "smiop.request_sent";
    case TraceKind::kSmiopReplyDecided:
      return "smiop.reply_decided";
    case TraceKind::kSmiopEpochAdvance:
      return "smiop.epoch_advance";
    case TraceKind::kSmiopFault:
      return "smiop.fault";
    case TraceKind::kVoteOpen:
      return "vote.open";
    case TraceKind::kVoteDecide:
      return "vote.decide";
    case TraceKind::kVoteDissent:
      return "vote.dissent";
    case TraceKind::kGmOpenRequest:
      return "gm.open_request";
    case TraceKind::kGmResend:
      return "gm.resend";
    case TraceKind::kGmChangeRequest:
      return "gm.change_request";
    case TraceKind::kGmExpulsion:
      return "gm.expulsion";
    case TraceKind::kGmRekey:
      return "gm.rekey";
    case TraceKind::kGmMembershipUpdate:
      return "gm.membership_update";
    case TraceKind::kQueueAppend:
      return "queue.append";
    case TraceKind::kQueueGc:
      return "queue.gc";
    case TraceKind::kQueueLaggard:
      return "queue.laggard";
    case TraceKind::kQueueBroken:
      return "queue.broken";
    case TraceKind::kNetDrop:
      return "net.drop";
    case TraceKind::kViewStart:
      return "view.start";
    case TraceKind::kViewEnd:
      return "view.end";
    case TraceKind::kEpochRekey:
      return "epoch.rekey";
    case TraceKind::kFaultInject:
      return "fault.inject";
    case TraceKind::kOracleViolation:
      return "oracle.violation";
    case TraceKind::kRecoveryStart:
      return "recovery.start";
    case TraceKind::kRecoveryComplete:
      return "recovery.complete";
    case TraceKind::kRecoveryAbort:
      return "recovery.abort";
    case TraceKind::kRecoveryProactive:
      return "recovery.proactive";
    case TraceKind::kAdmissionShed:
      return "admission.shed";
    case TraceKind::kControlAdjust:
      return "control.adjust";
    case TraceKind::kAdversaryRetarget:
      return "adversary.retarget";
    case TraceKind::kGmPolicy:
      return "gm.policy";
  }
  return "unknown";
}

namespace {

/// The idle event block passed from a destroyed Tracer to the next one. Never
/// destroyed, so a Tracer may die during static destruction; unguarded, as
/// the simulator is single-threaded (like BufStats).
std::vector<TraceEvent>& idle_events() {
  static auto* idle = new std::vector<TraceEvent>();
  return *idle;
}

}  // namespace

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  const std::size_t reserve = std::min(capacity_, kReserveEvents);
  std::vector<TraceEvent>& idle = idle_events();
  if (idle.capacity() >= reserve) events_.swap(idle);
  events_.reserve(reserve);
}

Tracer::~Tracer() {
  std::vector<TraceEvent>& idle = idle_events();
  if (events_.capacity() <= kReserveEvents && events_.capacity() > idle.capacity()) {
    events_.clear();
    idle.swap(events_);
  }
}

void Tracer::record(SimTime t, TraceKind kind, NodeId node, std::uint64_t trace, std::uint64_t a,
                    std::uint64_t b) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{t, kind, node, trace, a, b});
}

std::size_t Tracer::count(TraceKind kind) const {
  return static_cast<std::size_t>(std::count_if(
      events_.begin(), events_.end(), [kind](const TraceEvent& e) { return e.kind == kind; }));
}

std::vector<TraceEvent> Tracer::for_trace(std::uint64_t trace) const {
  std::vector<TraceEvent> out;
  for (const auto& e : events_) {
    if (e.trace == trace) out.push_back(e);
  }
  return out;
}

void Tracer::clear() {
  events_.clear();
  dropped_ = 0;
}

std::string Tracer::export_jsonl() const {
  std::string out;
  out.reserve(events_.size() * 64);
  for (const auto& e : events_) {
    out += "{\"t\":";
    out += std::to_string(e.t.ns);
    out += ",\"ev\":\"";
    out += trace_kind_name(e.kind);
    out += "\",\"node\":";
    out += std::to_string(e.node.value);
    out += ",\"trace\":";
    out += std::to_string(e.trace);
    out += ",\"a\":";
    out += std::to_string(e.a);
    out += ",\"b\":";
    out += std::to_string(e.b);
    out += "}\n";
  }
  return out;
}

}  // namespace itdos::telemetry
