#include "itdos/voting.hpp"

#include <cmath>

namespace itdos::core {

namespace {

bool within_epsilon(double a, double b, double eps) {
  if (std::isnan(a) || std::isnan(b)) return false;
  if (a == b) return true;  // covers equal infinities
  return std::fabs(a - b) <= eps;
}

}  // namespace

bool values_equivalent(const cdr::Value& a, const cdr::Value& b,
                       const VotePolicy& policy) {
  if (policy.kind == VotePolicy::Kind::kExact) return a == b;
  // kInexact and kAdaptive both compare within policy.epsilon; adaptive
  // voting varies the epsilon it passes in.
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case cdr::TypeKind::kFloat:
      return within_epsilon(a.as_float32(), b.as_float32(), policy.epsilon);
    case cdr::TypeKind::kDouble:
      return within_epsilon(a.as_float64(), b.as_float64(), policy.epsilon);
    case cdr::TypeKind::kSequence: {
      const auto& ea = a.elements();
      const auto& eb = b.elements();
      if (ea.size() != eb.size()) return false;
      for (std::size_t i = 0; i < ea.size(); ++i) {
        if (!values_equivalent(ea[i], eb[i], policy)) return false;
      }
      return true;
    }
    case cdr::TypeKind::kStruct: {
      const auto& fa = a.fields();
      const auto& fb = b.fields();
      if (fa.size() != fb.size()) return false;
      for (std::size_t i = 0; i < fa.size(); ++i) {
        if (fa[i].name != fb[i].name) return false;
        if (!values_equivalent(fa[i].get(), fb[i].get(), policy)) return false;
      }
      return true;
    }
    case cdr::TypeKind::kVoid:
    case cdr::TypeKind::kBoolean:
    case cdr::TypeKind::kOctet:
    case cdr::TypeKind::kInt32:
    case cdr::TypeKind::kInt64:
    case cdr::TypeKind::kString:
      return a == b;  // discrete kinds: exact comparison
  }
  return a == b;  // unreachable; kinds are exhaustive above
}

bool Vote::equivalent_at(const Ballot& a, const Ballot& b, double epsilon) const {
  if (policy_.kind == VotePolicy::Kind::kByteByByte) return a.raw == b.raw;
  if (!a.value || !b.value) return false;  // unparseable never matches
  VotePolicy effective = policy_;
  effective.epsilon = epsilon;
  return values_equivalent(*a.value, *b.value, effective);
}

DecisionRef Vote::try_decide(double epsilon) {
  // Approval counting: support of a ballot = ballots equivalent to it.
  // Inexact equivalence is non-transitive, so support is counted per ballot
  // (Parhami's approval voting [31]), not per equivalence class.
  for (std::size_t i = 0; i < ballots_.size(); ++i) {
    int support = 0;
    for (const Ballot& other : ballots_) {
      if (equivalent_at(ballots_[i], other, epsilon)) ++support;
    }
    if (support >= f_ + 1) {
      VoteDecision& decision = decided_.emplace();
      decision.winner = std::move(ballots_[i]);
      decision.support = support;
      decision.epsilon_used = epsilon;
      winner_ = i;
      decision.dissenters = dissenters();
      return DecisionRef(decision);
    }
  }
  return {};
}

DecisionRef Vote::add(Ballot ballot) {
  if (!sources_.insert(ballot.source).second) return {};  // one per source
  ballots_.push_back(std::move(ballot));
  if (decided_) return {};  // late arrival; dissenters() sees it

  if (const DecisionRef decision = try_decide(policy_.epsilon)) return decision;

  // Adaptive voting (§4, [32]): once the voter has enough ballots that a
  // decision *should* exist (2f+1, so at most f faulty among them), relax
  // the precision stepwise up to the ceiling rather than starve. Precision
  // is traded away only when replies are genuinely dispersed.
  if (policy_.kind == VotePolicy::Kind::kAdaptive &&
      static_cast<int>(ballots_.size()) >= 2 * f_ + 1 &&
      policy_.max_epsilon > policy_.epsilon) {
    double epsilon = policy_.epsilon;
    for (int step = 0; step < 16; ++step) {
      epsilon = epsilon == 0.0 ? policy_.max_epsilon / 65536.0 : epsilon * 4.0;
      if (epsilon > policy_.max_epsilon) epsilon = policy_.max_epsilon;
      if (const DecisionRef decision = try_decide(epsilon)) return decision;
      if (epsilon >= policy_.max_epsilon) break;
    }
  }
  return {};
}

std::vector<NodeId> Vote::dissenters() const {
  std::vector<NodeId> out;
  if (!decided_) return out;
  for (std::size_t i = 0; i < ballots_.size(); ++i) {
    // The winner's slot was moved from. A winner always matches itself: a
    // value that does not (one holding a NaN) matches nothing, so never wins.
    if (i == winner_) continue;
    // Compare at the epsilon that decided: a correct-but-jittery reply that
    // an adaptive vote accepted must not be flagged as faulty.
    if (!equivalent_at(decided_->winner, ballots_[i], decided_->epsilon_used)) {
      out.push_back(ballots_[i].source);
    }
  }
  return out;
}

void ConnectionVoter::set_telemetry(telemetry::Hub* hub, NodeId self, ConnectionId conn) {
  tel_ = hub;
  self_ = self;
  conn_ = conn;
  if (tel_ != nullptr) {
    discarded_counter_ =
        &tel_->metrics().counter(telemetry::metric_name("vote", self, "discarded"));
  }
}

void ConnectionVoter::expect(RequestId request_id) {
  expected_ = request_id;
  vote_.emplace(f_, policy_);  // prior vote state garbage collected here
  if (tel_ != nullptr) {
    tel_->trace(telemetry::TraceKind::kVoteOpen, self_,
                telemetry::trace_id(conn_, request_id));
  }
}

DecisionRef ConnectionVoter::submit(RequestId request_id, Ballot ballot) {
  if (!vote_ || request_id != expected_) {
    // "A discarded message could be from a Byzantine process, or it could be
    // a late-coming reply from an earlier request" — indistinguishable, so
    // neither used nor penalized.
    ++discarded_;
    if (discarded_counter_ != nullptr) discarded_counter_->inc();
    return {};
  }
  const DecisionRef decision = vote_->add(std::move(ballot));
  if (decision && tel_ != nullptr) {
    const std::uint64_t trace = telemetry::trace_id(conn_, request_id);
    tel_->trace(telemetry::TraceKind::kVoteDecide, self_, trace,
                static_cast<std::uint64_t>(decision->support),
                static_cast<std::uint64_t>(vote_->ballots()));
    for (NodeId dissenter : decision->dissenters) {
      tel_->trace(telemetry::TraceKind::kVoteDissent, self_, trace, dissenter.value);
    }
  }
  if (decision && audit_) audit_(conn_, request_id, f_, *decision);
  return decision;
}

}  // namespace itdos::core
