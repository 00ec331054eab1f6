// The causal-tracing half of the telemetry seam. Every protocol layer emits
// TraceEvents through one Tracer; events carry a request-scoped trace id so a
// single client invocation can be followed from the GIOP request through BFT
// total ordering to the voted reply.
//
// Determinism is load-bearing (src/net/sim.hpp): events are recorded in
// simulation order with integer-only payloads, so the exported JSON-lines
// stream is byte-identical across runs with the same seed — which makes the
// trace stream itself a regression oracle.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace itdos::telemetry {

enum class TraceKind : std::uint8_t {
  // Castro-Liskov BFT ordering (src/bft/replica.cpp).
  kBftRequest,        // a=seq of assignment (0 until ordered)
  kBftPrePrepare,     // a=view, b=seq
  kBftPrepare,        // a=view, b=seq
  kBftCommit,         // a=view, b=seq
  kBftExecute,        // a=seq
  kBftCheckpoint,     // a=seq
  kBftViewChange,     // a=new view
  kBftNewView,        // a=view
  kBftStateTransfer,  // a=snapshot seq
  // SMIOP virtual connections and epochs (src/itdos/smiop.cpp).
  kSmiopConnectStart,  // a=target domain
  kSmiopConnectOpen,   // a=connection, b=key epoch
  kSmiopRequestSent,   // a=sealed bytes, b=ordered entries (always 1)
  kSmiopReplyDecided,  // a=round latency ns
  kSmiopEpochAdvance,  // a=connection, b=new key epoch
  kSmiopFault,         // a=suspected element node
  // Middleware voting (src/itdos/voting.cpp).
  kVoteOpen,     // vote opened for a request round
  kVoteDecide,   // a=supporting ballots, b=total ballots
  kVoteDissent,  // a=dissenting replica node
  // Group Manager (src/itdos/group_manager.cpp).
  kGmOpenRequest,    // a=client domain, b=server domain
  kGmResend,         // a=connection epoch
  kGmChangeRequest,  // a=accused node, b=connection
  kGmExpulsion,      // a=expelled node, b=1 when a recovery retirement
  kGmRekey,          // a=connection, b=new epoch
  kGmMembershipUpdate,  // a=admitted node, b=new membership epoch
  // Queue state machine (src/itdos/queue.cpp).
  kQueueAppend,   // a=queue index
  kQueueGc,       // a=new base index, b=entries collected
  kQueueLaggard,  // a=laggard node
  kQueueBroken,   // virtual synchrony lost
  // Simulated network (src/net/network.cpp).
  kNetDrop,  // a=destination node
  // Span events segmenting a node's timeline (fault forensics cut on these).
  kViewStart,   // a=view now active on this replica
  kViewEnd,     // a=view that just ended on this replica
  kEpochRekey,  // a=connection, b=key epoch now newest at this party
  // Fault-injection subsystem (src/fault/).
  kFaultInject,      // a=fault::InjectKind, b=kind-specific detail
  kOracleViolation,  // a=fault::Violation::Kind, b=kind-specific detail
  // Proactive recovery & replacement (src/recovery/).
  kRecoveryStart,      // a=retired node, b=attempt number
  kRecoveryComplete,   // a=admitted node, b=MTTR ns
  kRecoveryAbort,      // a=failed fresh node, b=attempt number
  kRecoveryProactive,  // a=domain, b=rank scheduled for rejuvenation
  // Admission control & feedback response (src/itdos/queue.cpp, src/control/).
  kAdmissionShed,      // a=queue depth at shed, b=configured max depth
  kControlAdjust,      // a=new rejuvenation period ns, b=new laggard strikes
  kAdversaryRetarget,  // a=new target node, b=observed queue depth there
  kGmPolicy,           // a=laggard strikes now in force
};

std::string_view trace_kind_name(TraceKind kind);

/// One protocol event. Integer-only so export is trivially byte-stable.
struct TraceEvent {
  SimTime t{};
  TraceKind kind{};
  NodeId node{};           // the node that emitted the event
  std::uint64_t trace = 0;  // request-scoped id; 0 = not request-bound
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  bool operator==(const TraceEvent&) const = default;
};

/// The request-scoped id threaded from client request to voted reply:
/// derived from (virtual connection, per-connection request id).
constexpr std::uint64_t trace_id(ConnectionId conn, RequestId rid) {
  return (conn.value << 24) | (rid.value & ((std::uint64_t{1} << 24) - 1));
}

/// Bounded in-memory event log with a query API. When the buffer fills,
/// further events are counted (dropped()) but not stored, so long soaks
/// cannot exhaust memory.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 18;
  static constexpr std::size_t kReserveEvents = 1 << 16;

  /// Reserves min(capacity, kReserveEvents) events up front, so the log
  /// never doubles (briefly holding the old and new buffers at once) below
  /// that size; a fresh block's pages stay untouched until events land in
  /// them. Reserving the whole default capacity would put a 12 MiB block in
  /// the heap for runs that record far fewer events. The block is the idle
  /// one the last destroyed Tracer left, when there is one.
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Leaves the event block, emptied, for the next Tracer, unless it grew
  /// past kReserveEvents. A process that tears deployments down and builds
  /// new ones (bench repetitions, test fixtures) thereby allocates the block
  /// once instead of freeing and re-allocating 3 MiB per deployment, which
  /// fragments the heap.
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void record(SimTime t, TraceKind kind, NodeId node, std::uint64_t trace, std::uint64_t a = 0,
              std::uint64_t b = 0);

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t count(TraceKind kind) const;
  std::vector<TraceEvent> for_trace(std::uint64_t trace) const;
  std::uint64_t dropped() const { return dropped_; }

  void clear();

  /// One JSON object per line, fields in fixed order, integers only:
  /// {"t":3000,"ev":"bft.commit","node":4,"trace":16777217,"a":0,"b":1}
  std::string export_jsonl() const;

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

}  // namespace itdos::telemetry
