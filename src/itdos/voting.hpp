// The ITDOS voter (§3.6): middleware voting on *unmarshalled* CORBA data.
//
// "Since the marshalled GIOP format can differ depending on platform, ITDOS
// cannot simply perform byte-by-byte voting on the raw message data. ...
// voting must be accomplished in middleware, after the raw message stream
// has been unmarshalled." The voter is based on the Voting Virtual Machine
// [3] and supports inexact voting [31] for values (floats) that legitimately
// differ across heterogeneous platforms; inexact equivalence is deliberately
// NOT transitive.
//
// Decision rule (paper): "The voter requires a minimum of f+1 identical
// messages or 2f+1 total messages to perform a vote. It does not wait for
// all 3f+1 messages."
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cdr/value.hpp"
#include "common/buffer.hpp"
#include "common/ids.hpp"
#include "telemetry/telemetry.hpp"

namespace itdos::core {

/// How two candidate results are compared.
struct VotePolicy {
  enum class Kind {
    kExact,       // structural equality on unmarshalled Values
    kInexact,     // structural, floats within epsilon (non-transitive)
    kByteByByte,  // raw wire bytes (Immune/Rampart-style baseline; breaks
                  // under heterogeneity — kept for the E2 benchmark)
    kAdaptive,    // §4 future work [32]: starts at epsilon and relaxes up to
                  // max_epsilon when a full 2f+1 ballot set cannot decide —
                  // trading precision for fault tolerance
  };

  Kind kind = Kind::kExact;
  double epsilon = 0.0;      // kInexact: fixed; kAdaptive: starting value
  double max_epsilon = 0.0;  // kAdaptive: relaxation ceiling

  static VotePolicy exact() { return {Kind::kExact, 0.0, 0.0}; }
  static VotePolicy inexact(double eps) { return {Kind::kInexact, eps, eps}; }
  static VotePolicy byte_by_byte() { return {Kind::kByteByByte, 0.0, 0.0}; }
  static VotePolicy adaptive(double eps, double max_eps) {
    return {Kind::kAdaptive, eps, max_eps};
  }
};

/// Structural equivalence of two values under a policy (kExact/kInexact).
/// Numeric kinds must match exactly; float/double payloads compare within
/// epsilon for kInexact.
bool values_equivalent(const cdr::Value& a, const cdr::Value& b,
                       const VotePolicy& policy);

/// One candidate: the raw bytes as received plus (unless byte-by-byte) the
/// unmarshalled value. `raw` is a view, so a proof entry can share it.
struct Ballot {
  Ballot() = default;
  /// Copies `raw` into a view of its own, counted in BufStats. A caller
  /// that no longer needs its buffer assigns `raw` an rvalue instead.
  Ballot(NodeId source, const Bytes& raw, std::optional<cdr::Value> value)
      : source(source), raw(BufView::copy_of(raw)), value(std::move(value)) {}

  NodeId source;
  BufView raw;
  std::optional<cdr::Value> value;  // nullopt for kByteByByte
};

/// Outcome of a completed vote.
struct VoteDecision {
  Ballot winner;
  int support = 0;                  // ballots equivalent to the winner
  std::vector<NodeId> dissenters;   // sources whose ballots disagreed —
                                    // candidates for a change_request (§3.6)
  double epsilon_used = 0.0;        // kAdaptive: the precision that decided
};

/// A completed vote's decision by reference, or nothing: what Vote::add and
/// ConnectionVoter::submit return. It reads like std::optional<VoteDecision>
/// without copying the winning ballot, and refers into the Vote, so it is
/// valid only as long as that Vote is.
class DecisionRef {
 public:
  DecisionRef() = default;
  explicit DecisionRef(const VoteDecision& decision) : decision_(&decision) {}

  bool has_value() const { return decision_ != nullptr; }
  explicit operator bool() const { return has_value(); }
  const VoteDecision& operator*() const { return *decision_; }
  const VoteDecision* operator->() const { return decision_; }

 private:
  const VoteDecision* decision_ = nullptr;
};

/// Collates ballots for ONE request id and decides per the paper's rule.
class Vote {
 public:
  /// `f` is the tolerated fault count of the *sending* replication domain.
  Vote(int f, VotePolicy policy) : f_(f), policy_(policy) {}

  /// Adds a ballot (one per source; duplicates ignored). Returns the
  /// decision, which this Vote keeps, when this ballot brings f+1
  /// equivalent ballots; nothing otherwise, also for every ballot after the
  /// decision (those show in `dissenters()`). The winning ballot moves into
  /// the decision; nothing is copied.
  DecisionRef add(Ballot ballot);

  bool decided() const { return decided_.has_value(); }
  const std::optional<VoteDecision>& decision() const { return decided_; }
  int ballots() const { return static_cast<int>(ballots_.size()); }

  /// Sources that disagreed with the decided value, including ballots that
  /// arrived after the decision (the paper keeps collecting the remaining
  /// n-(2f+1) messages for fault detection).
  std::vector<NodeId> dissenters() const;

 private:
  bool equivalent(const Ballot& a, const Ballot& b) const {
    return equivalent_at(a, b, policy_.epsilon);
  }
  bool equivalent_at(const Ballot& a, const Ballot& b, double epsilon) const;
  DecisionRef try_decide(double epsilon);

  int f_;
  VotePolicy policy_;
  std::vector<Ballot> ballots_;
  std::size_t winner_ = 0;  // ballots_ index the decision's winner moved from
  std::set<NodeId> sources_;
  std::optional<VoteDecision> decided_;
};

/// Per-connection voter: one Vote per outstanding request id, with the
/// paper's discard rule — "Any just-received request identifier should match
/// the identifier of the outstanding request ... If the reply's identifier
/// does not match the expected message value, then the ITDOS receiver
/// discards the message ... The receiver neither uses the message's value
/// nor penalizes the sender."
class ConnectionVoter {
 public:
  ConnectionVoter(int f, VotePolicy policy) : f_(f), policy_(policy) {}

  /// Wires the voter into the telemetry seam (optional; unit tests skip it).
  /// `self` is the voting party's SMIOP node, `conn` the virtual connection
  /// the voter serves — together they scope the vote.open/decide/dissent
  /// events to the request trace.
  void set_telemetry(telemetry::Hub* hub, NodeId self, ConnectionId conn);

  /// Audit hook fired on every completed vote with the deciding f and the
  /// decision. The fault oracle uses it to assert every delivered reply was
  /// backed by at least f+1 matching ballots.
  using DecisionAudit = std::function<void(ConnectionId, RequestId, int f,
                                           const VoteDecision&)>;
  void set_audit(DecisionAudit audit) { audit_ = std::move(audit); }

  /// Opens the vote for the next outstanding request. Any state from prior
  /// requests is garbage collected (the paper's voter GC).
  void expect(RequestId request_id);

  /// Feeds a message for `request_id` from `source`. Messages for other ids
  /// are discarded (counted, not penalized). Returns the outstanding vote's
  /// decision when this message completes it; the decision lives until the
  /// next expect().
  DecisionRef submit(RequestId request_id, Ballot ballot);

  RequestId expected() const { return expected_; }
  bool has_outstanding() const { return vote_.has_value(); }
  const std::optional<Vote>& outstanding() const { return vote_; }
  std::uint64_t discarded() const { return discarded_; }

 private:
  int f_;
  VotePolicy policy_;
  RequestId expected_;
  std::optional<Vote> vote_;
  std::uint64_t discarded_ = 0;
  telemetry::Hub* tel_ = nullptr;
  NodeId self_{};
  ConnectionId conn_{};
  telemetry::Counter* discarded_counter_ = nullptr;  // vote.<self>.discarded
  DecisionAudit audit_;
};

}  // namespace itdos::core
