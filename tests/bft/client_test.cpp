// bft::Client retransmission: a lost request is broadcast one measured RTO
// after it was sent (RFC 6298 smoothing, Karn's rule), each request on its
// own deadline, and a fault-free run never retransmits.
#include "bft/client.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bft/harness.hpp"

namespace itdos::bft {
namespace {

ClusterOptions options(int pipeline_depth = 1) {
  ClusterOptions opts;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.pipeline_depth = pipeline_depth;
  return opts;
}

Cluster::AppFactory counter_factory() {
  return [](int) { return std::make_unique<CounterStateMachine>(); };
}

std::uint64_t retransmissions(Cluster& cluster, const Client& client) {
  return cluster.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("bft", client.id(), "retransmissions"));
}

void warm_up(Cluster& cluster, Client& client, int requests = 20) {
  for (int i = 0; i < requests; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, BufView(to_bytes("add:1"))).is_ok()) << i;
  }
}

/// A REQUEST the client broadcast to a backup: when, and which timestamp.
struct Broadcast {
  SimTime at;
  std::uint64_t timestamp = 0;
};

/// Appends to `log` every REQUEST `client` sends to a replica other than
/// rank 0, the view-0 primary.
void record_broadcasts(Cluster& cluster, const Client& client, std::vector<Broadcast>& log) {
  const NodeId primary = cluster.replica_id(0);
  net::Simulator& sim = cluster.sim();
  cluster.network().set_interceptor(client.id(), [primary, &sim, &log](const net::Packet& p) {
    const Result<Envelope> env = Envelope::decode(p.payload);
    if (p.to != primary && env.is_ok() && env.value().type == MsgType::kRequest) {
      log.push_back({sim.now(), RequestMsg::decode(env.value().body).value().timestamp});
    }
    return std::optional<BufView>(p.payload);
  });
}

TEST(ClientRetransmitTest, FirstBroadcastComesOneRtoAfterTheLostRequest) {
  Cluster cluster(options(), counter_factory());
  Client& client = cluster.add_client();
  warm_up(cluster, client);
  const std::int64_t rto = client.rto_ns();
  // A few round trips of 40-160 µs, far below the 40 ms cap.
  EXPECT_GT(rto, micros(40));
  EXPECT_LT(rto, millis(2));

  cluster.crash_replica(0);
  std::vector<Broadcast> broadcasts;
  record_broadcasts(cluster, client, broadcasts);
  const SimTime sent = cluster.sim().now();
  std::optional<SimTime> done_at;
  client.invoke(BufView(to_bytes("add:1")),
                [&](const Result<Bytes>& r) { if (r.is_ok()) done_at = cluster.sim().now(); });
  cluster.sim().run_for(millis(20));

  // One broadcast round, to the three backups, one RTO after the send.
  ASSERT_EQ(broadcasts.size(), 3u);
  for (const Broadcast& b : broadcasts) EXPECT_EQ(b.at - sent, rto);
  EXPECT_EQ(retransmissions(cluster, client), 1u);

  // The backups' view-change timer, not the client, bounds the outage.
  cluster.sim().run_for(millis(200));
  ASSERT_TRUE(done_at.has_value());
  EXPECT_LT(*done_at - sent, cluster.config().view_change_timeout_ns + millis(5));
}

TEST(ClientRetransmitTest, LaterRequestKeepsItsOwnDeadline) {
  Cluster cluster(options(/*pipeline_depth=*/2), counter_factory());
  Client& client = cluster.add_client();
  warm_up(cluster, client);
  const std::int64_t rto = client.rto_ns();

  cluster.crash_replica(0);
  std::vector<Broadcast> broadcasts;
  record_broadcasts(cluster, client, broadcasts);
  const SimTime first_sent = cluster.sim().now();
  client.invoke(BufView(to_bytes("add:1")), [](const Result<Bytes>&) {});
  const std::uint64_t first = client.timestamps_used();
  // The second request goes out just before the first one's deadline.
  cluster.sim().run_until(first_sent + (rto - micros(10)));
  const SimTime second_sent = cluster.sim().now();
  client.invoke(BufView(to_bytes("add:1")), [](const Result<Bytes>&) {});
  const std::uint64_t second = client.timestamps_used();

  cluster.sim().run_until(second_sent + (rto - 1));
  ASSERT_EQ(broadcasts.size(), 3u);
  for (const Broadcast& b : broadcasts) {
    EXPECT_EQ(b.timestamp, first);
    EXPECT_EQ(b.at - first_sent, rto);
  }
  cluster.sim().run_until(second_sent + rto);
  ASSERT_EQ(broadcasts.size(), 6u);
  for (std::size_t i = 3; i < broadcasts.size(); ++i) {
    EXPECT_EQ(broadcasts[i].timestamp, second);
    EXPECT_EQ(broadcasts[i].at - second_sent, rto);
  }
  EXPECT_EQ(retransmissions(cluster, client), 2u);
}

TEST(ClientRetransmitTest, RetransmittedRequestDoesNotMoveSrtt) {
  Cluster cluster(options(), counter_factory());
  Client& client = cluster.add_client();
  warm_up(cluster, client);
  const std::int64_t srtt = client.srtt_ns();
  ASSERT_GT(srtt, 0);

  // The primary never hears the client: the request completes only through
  // the backups' relays after the broadcast, many round trips late.
  cluster.network().set_link(client.id(), cluster.replica_id(0), false);
  const SimTime sent = cluster.sim().now();
  ASSERT_TRUE(cluster.invoke_sync(client, BufView(to_bytes("add:1"))).is_ok());
  EXPECT_GT(cluster.sim().now() - sent, 2 * srtt);
  EXPECT_EQ(retransmissions(cluster, client), 1u);
  EXPECT_EQ(client.srtt_ns(), srtt);

  // A request sent once does move it.
  cluster.network().set_link(client.id(), cluster.replica_id(0), true);
  ASSERT_TRUE(cluster.invoke_sync(client, BufView(to_bytes("add:1"))).is_ok());
  EXPECT_NE(client.srtt_ns(), srtt);
}

TEST(ClientRetransmitTest, FaultFreeSerialRunNeverRetransmits) {
  Cluster cluster(options(), counter_factory());
  Client& client = cluster.add_client();
  EXPECT_EQ(client.rto_ns(), cluster.config().client_retry_ns);  // before any sample
  warm_up(cluster, client, 200);
  cluster.settle();
  EXPECT_EQ(retransmissions(cluster, client), 0u);
  EXPECT_GT(client.srtt_ns(), 0);
  EXPECT_LE(client.rto_ns(), cluster.config().client_retry_ns);
}

}  // namespace
}  // namespace itdos::bft
