// The per-client reply cache holds the replies of the newest
// 2 * pipeline_depth executed timestamps. That covers every retransmission
// a correct client can send, since the timestamps it has in flight span
// fewer than 2 * pipeline_depth, and it is all a checkpoint snapshot carries.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "bft/harness.hpp"
#include "bft/replica.hpp"
#include "cdr/codec.hpp"
#include "impostor.hpp"

namespace itdos::bft {
namespace {

constexpr int kDepth = 4;
constexpr std::uint64_t kExecuted = 12;

ClusterOptions pipelined_options() {
  ClusterOptions opts;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.pipeline_depth = kDepth;
  return opts;
}

/// Sends the client's request `ts` to every replica, as a client does when
/// it retransmits.
void broadcast_request(Cluster& cluster, Impostor& client, std::uint64_t ts) {
  RequestMsg request;
  request.client = client.id();
  request.timestamp = ts;
  request.payload = BufView(to_bytes("add:1"));
  for (int rank = 0; rank < cluster.n(); ++rank) {
    client.send(cluster.replica_id(rank), MsgType::kRequest, body_of(request));
  }
}

/// (replica, timestamp) -> REPLYs the client has received.
std::map<std::pair<NodeId, std::uint64_t>, int> replies_by_replica(const Impostor& client) {
  std::map<std::pair<NodeId, std::uint64_t>, int> out;
  for (const Impostor::Received& msg : client.received()) {
    if (msg.type != MsgType::kReply) continue;
    const ReplyMsg reply = ReplyMsg::decode(BufView::borrow(msg.body)).value();
    ++out[{reply.replica, reply.timestamp}];
  }
  return out;
}

/// A client that keeps kDepth requests outstanding runs kExecuted of them.
void run_pipelined_client(Cluster& cluster, Impostor& client) {
  for (std::uint64_t first = 1; first <= kExecuted; first += kDepth) {
    for (std::uint64_t ts = first; ts < first + kDepth; ++ts) {
      broadcast_request(cluster, client, ts);
    }
    cluster.sim().run_for(millis(5));
  }
  for (int rank = 0; rank < cluster.n(); ++rank) {
    ASSERT_EQ(cluster.replica(rank).last_executed().value, kExecuted) << "rank " << rank;
  }
}

TEST(ReplyCacheTest, RetransmissionsOfTheLastWindowAreAnsweredByEveryReplica) {
  Cluster cluster(pipelined_options(),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  Impostor client(cluster, NodeId(1000));
  run_pipelined_client(cluster, client);
  const auto before = replies_by_replica(client);

  // The requests a correct client could still have outstanding are its
  // newest kDepth; every replica answers each of them from cache.
  for (std::uint64_t ts = kExecuted - kDepth + 1; ts <= kExecuted; ++ts) {
    broadcast_request(cluster, client, ts);
  }
  cluster.sim().run_for(millis(5));
  auto after = replies_by_replica(client);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    for (std::uint64_t ts = kExecuted - kDepth + 1; ts <= kExecuted; ++ts) {
      const std::pair key(cluster.replica_id(rank), ts);
      EXPECT_EQ(after[key], before.at(key) + 1) << "rank " << rank << ", ts " << ts;
    }
  }
  const auto app_value = [&](int rank) {
    return dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app()).value();
  };
  EXPECT_EQ(app_value(0), static_cast<std::int64_t>(kExecuted));  // nothing re-executed
}

TEST(ReplyCacheTest, TimestampsOlderThanTheCacheGetNoReplyFromAnyReplica) {
  Cluster cluster(pipelined_options(),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  Impostor client(cluster, NodeId(1000));
  run_pipelined_client(cluster, client);
  const auto before = replies_by_replica(client);

  // The cache holds timestamps 5-12. Timestamp 5 is still answered; 4 and
  // older get nothing, on every replica alike.
  constexpr std::uint64_t kOldestCached = kExecuted - 2 * kDepth + 1;
  for (std::uint64_t ts = 1; ts <= kOldestCached; ++ts) broadcast_request(cluster, client, ts);
  cluster.sim().run_for(millis(5));
  auto after = replies_by_replica(client);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    for (std::uint64_t ts = 1; ts <= kOldestCached; ++ts) {
      const std::pair key(cluster.replica_id(rank), ts);
      EXPECT_EQ(after[key], before.at(key) + (ts == kOldestCached ? 1 : 0))
          << "rank " << rank << ", ts " << ts;
    }
  }
}

TEST(ReplyCacheTest, LostRepliesOutlastLaterRequests) {
  Cluster cluster(pipelined_options(),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  Client& client = cluster.add_client();
  // Every reply to timestamp 2 is lost until `losing` is cleared, while the
  // client's other pipeline slots keep completing requests around it.
  constexpr std::uint64_t kLost = 2;
  bool losing = true;
  cluster.network().set_inbound_filter(client.id(), [&](const net::Packet& p) {
    const auto env = Envelope::decode(p.payload);
    if (!losing || !env.is_ok() || env.value().type != MsgType::kReply) return true;
    return ReplyMsg::decode(env.value().body).value().timestamp != kLost;
  });
  constexpr int kRequests = 6 * kDepth;
  std::vector<std::optional<Result<Bytes>>> done(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    client.invoke(BufView(to_bytes("add:1")),
                  [&done, i](Result<Bytes> result) { done[i] = std::move(result); });
  }
  cluster.sim().run_for(millis(200));  // several retransmissions of timestamp 2
  EXPECT_GE(cluster.sim().telemetry().metrics().counter_value(
                telemetry::metric_name("bft", client.id(), "retransmissions")),
            3u);
  EXPECT_FALSE(done[kLost - 1].has_value());
  // The client stops short of pushing timestamp 2 out of the reply cache.
  EXPECT_LT(client.timestamps_used(), kLost + 2 * kDepth);

  losing = false;
  cluster.sim().run_for(millis(200));
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(done[i].has_value()) << "timestamp " << i + 1;
    EXPECT_TRUE(done[i]->is_ok()) << "timestamp " << i + 1;
  }
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_EQ(dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app()).value(),
              kRequests)
        << "rank " << rank;
  }
}

/// Reply-cache entries per client in a checkpoint snapshot (the layout
/// Replica::make_snapshot writes).
std::map<std::uint64_t, std::uint32_t> cached_replies_in(ByteView snapshot) {
  std::map<std::uint64_t, std::uint32_t> out;
  cdr::Decoder dec(snapshot, cdr::ByteOrder::kLittleEndian);
  const std::uint32_t clients = dec.read_uint32().value();
  for (std::uint32_t i = 0; i < clients; ++i) {
    const std::uint64_t client = dec.read_uint64().value();
    dec.read_uint64().value();  // last timestamp
    dec.read_uint64().value();  // executed floor
    const std::uint32_t sparse = dec.read_uint32().value();
    for (std::uint32_t j = 0; j < sparse; ++j) dec.read_uint64().value();
    const std::uint32_t replies = dec.read_uint32().value();
    for (std::uint32_t j = 0; j < replies; ++j) {
      dec.read_uint64().value();
      dec.read_bytes().value();
    }
    out[client] = replies;
  }
  return out;
}

TEST(ReplyCacheTest, SnapshotHoldsAtMostTwoPipelinesOfRepliesPerClient) {
  Cluster cluster(pipelined_options(),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  Impostor client(cluster, NodeId(1000));
  run_pipelined_client(cluster, client);

  // Replica 3 steps aside; speaking for it, ask the others for state.
  cluster.crash_replica(3);
  Impostor requester(cluster, cluster.replica_id(3));
  StateRequestMsg request;
  request.seq = SeqNum(kExecuted);
  request.requester = requester.id();
  for (int rank = 0; rank < 3; ++rank) {
    requester.send(cluster.replica_id(rank), MsgType::kStateRequest, body_of(request));
  }
  cluster.sim().run_for(millis(5));
  int snapshots = 0;
  for (const Impostor::Received& msg : requester.received()) {
    if (msg.type != MsgType::kStateResponse) continue;
    const StateResponseMsg response = StateResponseMsg::decode(msg.body).value();
    EXPECT_EQ(response.seq.value, kExecuted);
    const auto cached = cached_replies_in(response.snapshot);
    ASSERT_EQ(cached.size(), 1u);
    EXPECT_EQ(cached.at(client.id().value), 2u * kDepth);
    ++snapshots;
  }
  EXPECT_EQ(snapshots, 3);
}

}  // namespace
}  // namespace itdos::bft
