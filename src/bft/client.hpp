// Castro-Liskov client: submits requests to the replica group and decides on
// a result from the replies.
//
// Completion policy is pluggable. Stock Castro-Liskov "waits for f+1 replies
// with the same result" — byte equality, which §3.6 shows cannot work across
// heterogeneous replicas. ITDOS swaps in its unmarshalled voter by providing
// a different ReplyCollector.
//
// A request goes to the primary first. It is broadcast to every replica
// one RTO after it was sent, and again every client_retry_ns until it
// completes; the RTO follows the client's measured send-to-quorum time
// (RFC 6298 smoothing, Karn's rule), so a dead primary is noticed within
// a few round trips (DESIGN.md §4b).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "bft/config.hpp"
#include "bft/messages.hpp"
#include "net/process.hpp"

namespace itdos::bft {

/// Accumulates authenticated replies for one request and decides when (and
/// with what result) the invocation completes.
class ReplyCollector {
 public:
  virtual ~ReplyCollector() = default;

  /// Feeds one authenticated reply; returns the decided result once
  /// sufficient. The client feeds every reply, so a collector counts each
  /// replica once. The client drops the collector once it decides.
  virtual std::optional<Bytes> add(NodeId replica, ByteView result) = 0;
};

/// Stock Castro-Liskov rule: f+1 byte-identical results.
class MatchingReplyCollector : public ReplyCollector {
 public:
  explicit MatchingReplyCollector(int f);
  /// The decided result is moved out: the collector is spent.
  std::optional<Bytes> add(NodeId replica, ByteView result) override;

 private:
  struct Tally {
    Bytes result;
    int votes = 0;
  };

  int f_;
  std::vector<NodeId> voters_;  // replicas counted, at most n = 3f + 1
  std::vector<Tally> tallies_;  // distinct results, in arrival order
};

class Client : public net::Process {
 public:
  using Completion = std::function<void(Result<Bytes>)>;
  using CollectorFactory = std::function<std::unique_ptr<ReplyCollector>(int f)>;

  Client(net::Network& net, NodeId id, BftConfig config, const SessionKeys& keys);

  /// Overrides the completion policy (default: MatchingReplyCollector).
  void set_collector_factory(CollectorFactory factory) {
    collector_factory_ = std::move(factory);
  }

  /// Submits a request. Requests queue internally; up to the configured
  /// pipeline_depth are outstanding at once, within 2 * pipeline_depth
  /// consecutive timestamps (depth 1 is the paper's single-threaded model:
  /// "only one outstanding request can exist for a connection at a time").
  /// Completions fire as quorums form — with
  /// pipelining that can be out of submission order. The payload view is
  /// retained across retransmissions without copying.
  void invoke(BufView payload, Completion done);

  /// Number of requests submitted so far (== last timestamp used).
  std::uint64_t timestamps_used() const { return next_timestamp_ - 1; }

  /// Smoothed send-to-quorum time of requests that were never
  /// retransmitted; 0 before the first such request completes.
  std::int64_t srtt_ns() const { return srtt_ns_; }

  /// How long after its first send a request is broadcast to every
  /// replica: max(srtt + 4 * rttvar, 2 * srtt), at most client_retry_ns,
  /// and client_retry_ns itself before the first sample.
  std::int64_t rto_ns() const;

  /// Requests currently awaiting a reply quorum.
  std::size_t inflight() const { return inflight_.size(); }

 protected:
  void on_packet(const net::Packet& packet) override;

 private:
  struct PendingRequest {
    BufView payload;
    Completion done;
  };

  /// One submitted-but-undecided request.
  struct Inflight {
    BufView payload;
    Digest payload_digest{};  // what its authenticators cover of the payload
    Completion done;
    std::unique_ptr<ReplyCollector> collector;  // counts each replica once
    SimTime sent_at;           // first send: the round-trip sample's start
    SimTime retry_at;          // when it is next broadcast
    bool retransmitted = false;  // Karn's rule: then it gives no sample
  };

  /// Dispatches queued requests into the pipeline window.
  void pump();
  void send_request(std::uint64_t timestamp, const Inflight& request, bool broadcast);
  void on_retry_timeout();
  /// Arms the one retry timer for the earliest deadline in flight, or
  /// disarms it when nothing is in flight. pump() ends with it.
  void arm_retry_timer();
  /// Folds one send-to-quorum time into srtt/rttvar (RFC 6298 §2).
  void sample_round_trip(std::int64_t rtt_ns);
  void finish(std::uint64_t timestamp, Result<Bytes> result);
  /// The MAC key shared with each replica, by rank, looked up on first use.
  const std::vector<const crypto::CmacKey*>& replica_keys();

  BftConfig config_;
  const SessionKeys& keys_;
  std::vector<const crypto::CmacKey*> replica_keys_;  // see replica_keys()
  std::vector<crypto::MacTag> request_tags_;  // a request's authenticators, by replica
  CollectorFactory collector_factory_;

  std::uint64_t next_timestamp_ = 1;
  telemetry::Counter* retransmissions_;  // bft.<client>.retransmissions, per request
  std::int64_t srtt_ns_ = 0;
  std::int64_t rttvar_ns_ = 0;
  ViewId view_estimate_;  // updated from replies; guides who we call primary

  std::deque<PendingRequest> queue_;
  std::map<std::uint64_t, Inflight> inflight_;  // timestamp -> state
  net::EventHandle retry_timer_{};
  std::optional<SimTime> retry_timer_due_;  // set while retry_timer_ is armed
};

}  // namespace itdos::bft
