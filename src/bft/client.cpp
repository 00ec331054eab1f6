#include "bft/client.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/counters.hpp"
#include "crypto/sha256.hpp"

namespace itdos::bft {

MatchingReplyCollector::MatchingReplyCollector(int f) : f_(f) {
  voters_.reserve(static_cast<std::size_t>(3 * f + 1));
}

std::optional<Bytes> MatchingReplyCollector::add(NodeId replica, ByteView result) {
  if (std::find(voters_.begin(), voters_.end(), replica) != voters_.end()) {
    return std::nullopt;  // one vote per replica
  }
  voters_.push_back(replica);
  auto it = std::find_if(tallies_.begin(), tallies_.end(), [result](const Tally& tally) {
    return std::equal(tally.result.begin(), tally.result.end(), result.begin(), result.end());
  });
  if (it == tallies_.end()) {
    it = tallies_.insert(tallies_.end(), Tally{Bytes(result.begin(), result.end())});
  }
  if (++it->votes >= f_ + 1) return std::move(it->result);
  return std::nullopt;
}

Client::Client(net::Network& net, NodeId id, BftConfig config, const SessionKeys& keys)
    : Process(net, id),
      config_(std::move(config)),
      keys_(keys),
      request_tags_(config_.replicas.size()),
      retransmissions_(&net.sim().telemetry().metrics().counter(
          telemetry::metric_name("bft", id, "retransmissions"))) {
  collector_factory_ = [](int f) { return std::make_unique<MatchingReplyCollector>(f); };
}

void Client::invoke(BufView payload, Completion done) {
  queue_.push_back(PendingRequest{std::move(payload), std::move(done)});
  pump();
}

void Client::pump() {
  // Besides the in-flight count, the timestamps in flight span fewer than
  // 2 * pipeline_depth. A request whose replies keep getting lost therefore
  // has fewer than 2 * pipeline_depth newer executed timestamps, and the
  // replicas' reply cache (Replica::ClientRecord) still answers its
  // retransmission; without the span bound, later requests completing
  // around it would evict its reply and it would never complete.
  const auto depth = static_cast<std::uint64_t>(config_.pipeline_depth);
  while (!queue_.empty() && inflight_.size() < depth &&
         (inflight_.empty() || next_timestamp_ - inflight_.begin()->first < 2 * depth)) {
    PendingRequest next = std::move(queue_.front());
    queue_.pop_front();
    const std::uint64_t timestamp = next_timestamp_++;
    Inflight& fl = inflight_[timestamp];
    fl.payload = std::move(next.payload);
    // The one pass over the payload: retransmissions re-tag this digest.
    fl.payload_digest = crypto::sha256(ByteView(fl.payload));
    fl.done = std::move(next.done);
    fl.collector = collector_factory_(config_.f);
    fl.sent_at = now();
    fl.retry_at = now() + rto_ns();
    send_request(timestamp, fl, /*broadcast=*/false);
  }
  arm_retry_timer();
}

std::int64_t Client::rto_ns() const {
  if (srtt_ns_ == 0) return config_.client_retry_ns;
  return std::min(std::max(srtt_ns_ + 4 * rttvar_ns_, 2 * srtt_ns_), config_.client_retry_ns);
}

void Client::sample_round_trip(std::int64_t rtt_ns) {
  if (srtt_ns_ == 0) {
    srtt_ns_ = rtt_ns;
    rttvar_ns_ = rtt_ns / 2;
    return;
  }
  rttvar_ns_ = (3 * rttvar_ns_ + std::abs(srtt_ns_ - rtt_ns)) / 4;
  srtt_ns_ = (7 * srtt_ns_ + rtt_ns) / 8;
}

void Client::arm_retry_timer() {
  std::optional<SimTime> due;
  for (const auto& [timestamp, fl] : inflight_) {
    if (!due || fl.retry_at < *due) due = fl.retry_at;
  }
  if (due == retry_timer_due_) return;
  if (retry_timer_due_) cancel_timer(retry_timer_);
  retry_timer_due_ = due;
  if (due) retry_timer_ = set_timer(*due - now(), [this] { on_retry_timeout(); });
}

void Client::send_request(std::uint64_t timestamp, const Inflight& fl, bool broadcast) {
  RequestMsg request;
  request.client = id();
  request.timestamp = timestamp;
  request.payload = fl.payload;
  Frame frame(id(), request, Frame::trailer_bound(config_.replicas.size(), false));
  // The request is authenticated to every replica so any of them can relay
  // it to the primary, and check it inside the primary's batch, without
  // weakening authenticity. The tags cover the header and the payload's
  // digest (payload_digest(body) is the SHA-256 of the payload itself).
  crypto::cmac_tags(replica_keys(), request_mac_input(frame.body(), fl.payload_digest),
                    request_tags_);
  const BufView wire = frame.seal_tags(config_.replicas, request_tags_);
  if (broadcast) {
    // All replicas share the one sealed wire frame.
    for (NodeId replica : config_.replicas) send_to(replica, wire);
  } else {
    send_to(config_.primary_for(view_estimate_), wire);
  }
}

const std::vector<const crypto::CmacKey*>& Client::replica_keys() {
  if (replica_keys_.empty()) {
    for (NodeId replica : config_.replicas) replica_keys_.push_back(&keys_.mac_key(id(), replica));
  }
  return replica_keys_;
}

void Client::on_retry_timeout() {
  retry_timer_due_.reset();
  // Suspect the primary; tell every replica about each request past its
  // own deadline. Later retries keep the fixed client_retry_ns cadence.
  for (auto& [timestamp, fl] : inflight_) {
    if (fl.retry_at > now()) continue;
    send_request(timestamp, fl, /*broadcast=*/true);
    fl.retransmitted = true;
    fl.retry_at = now() + config_.client_retry_ns;
    retransmissions_->inc();
  }
  arm_retry_timer();
}

void Client::on_packet(const net::Packet& packet) {
  Result<Envelope> decoded = Envelope::decode(packet.payload);
  if (!decoded.is_ok()) return;
  const Envelope env = std::move(decoded).take();
  if (env.type != MsgType::kReply) return;
  const int rank = config_.rank_of(env.sender);
  if (rank < 0) return;
  const std::optional<crypto::MacTag> tag = env.tag_for(id());
  if (!tag || !replica_keys()[static_cast<std::size_t>(rank)]->verify(
                  mac_input(env.type, env.body), *tag)) {
    return;
  }

  Result<ReplyMsg> reply = ReplyMsg::decode(env.body);
  if (!reply.is_ok()) return;
  const ReplyMsg msg = std::move(reply).take();
  if (msg.replica != env.sender || msg.client != id()) return;

  // Track the view so retransmissions target the right primary.
  if (counters::after(msg.view.value, view_estimate_.value)) view_estimate_ = msg.view;

  const auto it = inflight_.find(msg.timestamp);
  if (it == inflight_.end()) return;  // late/duplicate
  Inflight& fl = it->second;
  if (std::optional<Bytes> result = fl.collector->add(msg.replica, msg.result)) {
    finish(msg.timestamp, std::move(*result));
  }
}

void Client::finish(std::uint64_t timestamp, Result<Bytes> result) {
  const auto it = inflight_.find(timestamp);
  if (it == inflight_.end()) return;
  // Karn's rule: a retransmitted request's replies may answer any of its
  // sends, so only a request sent once times the round trip.
  if (!it->second.retransmitted) sample_round_trip(now() - it->second.sent_at);
  const Completion done = std::move(it->second.done);
  inflight_.erase(it);
  done(std::move(result));
  pump();  // re-arms the retry timer
}

}  // namespace itdos::bft
