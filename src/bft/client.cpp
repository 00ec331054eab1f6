#include "bft/client.hpp"

#include "common/counters.hpp"
#include "crypto/sha256.hpp"

namespace itdos::bft {

std::optional<Bytes> MatchingReplyCollector::add(NodeId replica, const Bytes& result) {
  auto& voters = votes_[result];
  voters.insert(replica);
  if (static_cast<int>(voters.size()) >= f_ + 1) return result;
  return std::nullopt;
}

Client::Client(net::Network& net, NodeId id, BftConfig config, const SessionKeys& keys)
    : Process(net, id),
      config_(std::move(config)),
      keys_(keys),
      request_tags_(config_.replicas.size()) {
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
    send_request(timestamp, fl, /*broadcast=*/false);
  }
  if (!inflight_.empty() && !retry_timer_armed_) {
    retry_timer_armed_ = true;
    retry_timer_ = set_timer(config_.client_retry_ns, [this] { on_retry_timeout(); });
  }
}

void Client::send_request(std::uint64_t timestamp, const Inflight& fl, bool broadcast) {
  RequestMsg request;
  request.client = id();
  request.timestamp = timestamp;
  request.payload = fl.payload;
  Frame frame(arena(), id(), request, Frame::trailer_bound(config_.replicas.size(), false));
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
  retry_timer_armed_ = false;
  if (inflight_.empty()) return;
  ++retransmissions_;
  // Suspect the primary; tell everyone about every outstanding request.
  for (const auto& [timestamp, fl] : inflight_) {
    send_request(timestamp, fl, /*broadcast=*/true);
  }
  retry_timer_armed_ = true;
  retry_timer_ = set_timer(config_.client_retry_ns, [this] { on_retry_timeout(); });
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
  if (!fl.replied.insert(msg.replica).second) return;  // one vote per replica

  if (std::optional<Bytes> result = fl.collector->add(msg.replica, msg.result)) {
    finish(msg.timestamp, std::move(*result));
  }
}

void Client::finish(std::uint64_t timestamp, Result<Bytes> result) {
  const auto it = inflight_.find(timestamp);
  if (it == inflight_.end()) return;
  const Completion done = std::move(it->second.done);
  inflight_.erase(it);
  if (inflight_.empty() && retry_timer_armed_) {
    cancel_timer(retry_timer_);
    retry_timer_armed_ = false;
  }
  done(std::move(result));
  pump();
}

}  // namespace itdos::bft
