// Agreement messages that can no longer change their receiver's state are
// dropped before their MAC is checked (DESIGN.md §6k): a replica drops
// votes from another view, votes for executed slots, COMMITs for committed
// slots, PREPAREs once it has sent its own COMMIT in the view, and
// CHECKPOINTs at or below its stable one; a client drops REPLYs for
// requests not in flight. Each drop counts in `stale_drops` (replica) or
// `late_replies` (client) instead of `auth_failures`, and everything that
// can still matter keeps its MAC check.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "batch/batch_msg.hpp"
#include "bft/client.hpp"
#include "bft/harness.hpp"
#include "bft/replica.hpp"
#include "client_auth.hpp"
#include "impostor.hpp"
#include "wire.hpp"

namespace itdos::bft {
namespace {

ClusterOptions fast_options() {
  ClusterOptions opts;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  return opts;
}

Cluster::AppFactory counter_factory() {
  return [](int) { return std::make_unique<CounterStateMachine>(); };
}

std::uint64_t count(Cluster& cluster, NodeId node, std::string_view name) {
  return cluster.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("bft", node, name));
}

/// Sends `body` as a `type` message from `from` to `to` whose tag for `to`
/// is garbage: a forgery, or a packet corrupted on the wire.
void send_forged(Cluster& cluster, NodeId from, NodeId to, MsgType type, Bytes body) {
  crypto::MacTag junk{};
  junk.fill(0xA5);
  Bytes entry;
  add_entry(entry, to, junk);
  Envelope env;
  env.type = type;
  env.sender = from;
  env.body = BufView(std::move(body));
  env.auth = AuthVector(BufView(std::move(entry)));
  cluster.network().send(from, to, wire_of(env));
}

template <typename Vote>
Bytes vote(std::uint64_t view, std::uint64_t seq, const Digest& digest, NodeId replica) {
  Vote msg;
  msg.view = ViewId(view);
  msg.seq = SeqNum(seq);
  msg.req_digest = digest;
  msg.replica = replica;
  return body_of(msg);
}

/// Rank 1 is the one live replica; the test speaks for the other three
/// (rank 0 is the view-0 primary) and drives rank 1's slots by hand.
class LoneReplica {
 public:
  LoneReplica() : cluster_(fast_options(), counter_factory()) {
    for (int rank : {0, 2, 3}) {
      cluster_.crash_replica(rank);
      impostors_.emplace(rank, std::make_unique<Impostor>(cluster_, cluster_.replica_id(rank)));
    }
    cluster_.replica(1).set_execution_observer(
        [this](SeqNum seq, const Digest& digest) { executed_[seq.value] = digest; });
  }

  Cluster& cluster() { return cluster_; }
  NodeId target() const { return cluster_.replica_id(1); }
  std::uint64_t counter(std::string_view name) { return count(cluster_, target(), name); }
  const std::map<std::uint64_t, Digest>& executed() const { return executed_; }

  /// The view-0 primary proposes client 7's request `timestamp`, an add:1,
  /// at `seq`; returns the proposal digest.
  Digest propose(std::uint64_t seq, std::uint64_t timestamp) {
    batch::BatchMsg batch;
    batch.entries.push_back(client_entry(cluster_.keys(), cluster_.config(),
                                         encode_request(7, timestamp, to_bytes("add:1"))));
    PrePrepareMsg pp;
    pp.view = ViewId(0);
    pp.seq = SeqNum(seq);
    pp.request = batch.encode();
    pp.req_digest = proposal_digest(batch);
    send(0, MsgType::kPrePrepare, body_of(pp));
    return pp.req_digest;
  }

  /// Rank `rank`'s honest `Vote` for (view 0, seq, digest).
  template <typename Vote>
  void honest(int rank, std::uint64_t seq, const Digest& digest) {
    send(rank, Vote::kType, vote<Vote>(0, seq, digest, cluster_.replica_id(rank)));
  }

  /// Rank `rank`'s `Vote` for (view, seq, digest) with a garbage tag.
  template <typename Vote>
  void forged(int rank, std::uint64_t view, std::uint64_t seq, const Digest& digest) {
    send_forged(cluster_, cluster_.replica_id(rank), target(), Vote::kType,
                vote<Vote>(view, seq, digest, cluster_.replica_id(rank)));
    cluster_.sim().run_for(millis(1));
  }

  /// Prepares and commits `seq` at rank 1: the proposal, rank 2's PREPARE
  /// (rank 1 then sends its COMMIT) and ranks 2's and 3's COMMITs.
  Digest commit(std::uint64_t seq, std::uint64_t timestamp) {
    const Digest digest = propose(seq, timestamp);
    honest<PrepareMsg>(2, seq, digest);
    honest<CommitMsg>(2, seq, digest);
    honest<CommitMsg>(3, seq, digest);
    return digest;
  }

 private:
  void send(int rank, MsgType type, Bytes body) {
    impostors_.at(rank)->send(target(), type, std::move(body));
    cluster_.sim().run_for(millis(1));
  }

  Cluster cluster_;
  std::map<int, std::unique_ptr<Impostor>> impostors_;
  std::map<std::uint64_t, Digest> executed_;
};

TEST(StaleDropTest, ForgedCommitIsCheckedUntilItsSlotCommits) {
  // Slot 2 prepares at rank 1, which sends its COMMIT; rank 2's COMMIT is
  // one short of the 2f+1 quorum. A forged COMMIT for it is checked and
  // counted in auth_failures. Once rank 3's COMMIT commits the slot (slot
  // 1 is empty, so nothing executes), the same forgery is dropped before
  // its MAC: it counts in stale_drops, and the slot's decision stands.
  LoneReplica lone;
  const Digest digest = lone.propose(2, 2);
  lone.honest<PrepareMsg>(2, 2, digest);
  lone.honest<CommitMsg>(2, 2, digest);
  ASSERT_EQ(lone.counter("commits_sent"), 1u);
  const std::uint64_t failures = lone.counter("auth_failures");
  Digest other = digest;
  other[0] ^= 0xFF;

  lone.forged<CommitMsg>(0, 0, 2, other);
  EXPECT_EQ(lone.counter("auth_failures"), failures + 1);
  EXPECT_EQ(lone.counter("stale_drops"), 0u);
  lone.forged<CommitMsg>(0, 0, 3, other);  // a slot the log does not hold
  EXPECT_EQ(lone.counter("auth_failures"), failures + 2);
  EXPECT_EQ(lone.counter("stale_drops"), 0u);

  lone.honest<CommitMsg>(3, 2, digest);
  ASSERT_EQ(lone.cluster().replica(1).last_executed().value, 0u);
  lone.forged<CommitMsg>(0, 0, 2, other);
  EXPECT_EQ(lone.counter("auth_failures"), failures + 2);
  EXPECT_EQ(lone.counter("stale_drops"), 1u);
  EXPECT_EQ(lone.counter("commits_sent"), 1u);

  // Slot 1 commits: both slots execute, slot 2 with the digest it
  // committed.
  lone.commit(1, 1);
  ASSERT_EQ(lone.cluster().replica(1).last_executed().value, 2u);
  EXPECT_EQ(lone.executed().at(2), digest);
  const auto& app = dynamic_cast<const CounterStateMachine&>(lone.cluster().replica(1).app());
  EXPECT_EQ(app.value(), 2);
}

TEST(StaleDropTest, PrepareCountsUntilTheReplicasOwnCommit) {
  // Before rank 1 has sent its COMMIT for slot 1, a forged PREPARE is
  // checked (auth_failures) and an honest one counts: rank 2's completes
  // the 2f and rank 1 sends its COMMIT. After that a PREPARE can change
  // nothing, and the forgery is dropped unchecked.
  LoneReplica lone;
  const Digest digest = lone.propose(1, 1);
  const std::uint64_t failures = lone.counter("auth_failures");
  lone.forged<PrepareMsg>(3, 0, 1, digest);
  EXPECT_EQ(lone.counter("auth_failures"), failures + 1);
  EXPECT_EQ(lone.counter("commits_sent"), 0u);

  lone.honest<PrepareMsg>(2, 1, digest);
  EXPECT_EQ(lone.counter("commits_sent"), 1u);
  EXPECT_EQ(lone.counter("stale_drops"), 0u);

  lone.forged<PrepareMsg>(3, 0, 1, digest);
  EXPECT_EQ(lone.counter("auth_failures"), failures + 1);
  EXPECT_EQ(lone.counter("stale_drops"), 1u);
  EXPECT_EQ(lone.counter("commits_sent"), 1u);
}

TEST(StaleDropTest, VoteFromAnotherViewIsDropped) {
  // Rank 1 is in view 0. A PREPARE or COMMIT of any other view counts
  // toward nothing here, forged or not; one of view 0 for an undecided
  // slot is still checked.
  LoneReplica lone;
  const Digest digest = lone.propose(1, 1);
  const std::uint64_t failures = lone.counter("auth_failures");
  lone.forged<PrepareMsg>(2, 1, 1, digest);
  lone.forged<CommitMsg>(2, 1, 1, digest);
  lone.forged<CommitMsg>(3, 7, 1, digest);
  EXPECT_EQ(lone.counter("stale_drops"), 3u);
  EXPECT_EQ(lone.counter("auth_failures"), failures);

  lone.forged<PrepareMsg>(2, 0, 1, digest);
  EXPECT_EQ(lone.counter("stale_drops"), 3u);
  EXPECT_EQ(lone.counter("auth_failures"), failures + 1);
  EXPECT_EQ(lone.counter("commits_sent"), 0u);
  EXPECT_EQ(lone.cluster().replica(1).view().value, 0u);
}

TEST(StaleDropTest, VotesForExecutedSlotsAndStaleCheckpointsAreDropped) {
  // Five requests with a checkpoint every four slots: every replica has
  // executed slot 5 and holds a stable checkpoint at 4. Forged votes for
  // slots up to 5, and forged CHECKPOINTs at or below 4, are dropped
  // unchecked; a forged CHECKPOINT above 4 is checked.
  ClusterOptions opts = fast_options();
  opts.checkpoint_interval = 4;
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, BufView(to_bytes("add:1"))).is_ok()) << i;
  }
  cluster.settle();
  const NodeId target = cluster.replica_id(1);
  const NodeId peer = cluster.replica_id(2);
  ASSERT_EQ(cluster.replica(1).last_executed().value, 5u);
  ASSERT_EQ(cluster.replica(1).stable_checkpoint_seq().value, 4u);
  const std::uint64_t failures = count(cluster, target, "auth_failures");
  const std::uint64_t drops = count(cluster, target, "stale_drops");

  send_forged(cluster, peer, target, MsgType::kCommit, vote<CommitMsg>(0, 5, Digest{}, peer));
  send_forged(cluster, peer, target, MsgType::kPrepare, vote<PrepareMsg>(0, 3, Digest{}, peer));
  for (const std::uint64_t seq : {2, 4}) {
    CheckpointMsg checkpoint;
    checkpoint.seq = SeqNum(seq);
    checkpoint.replica = peer;
    send_forged(cluster, peer, target, MsgType::kCheckpoint, body_of(checkpoint));
  }
  cluster.sim().run_for(millis(1));
  EXPECT_EQ(count(cluster, target, "stale_drops"), drops + 4);
  EXPECT_EQ(count(cluster, target, "auth_failures"), failures);

  CheckpointMsg ahead;
  ahead.seq = SeqNum(8);
  ahead.replica = peer;
  send_forged(cluster, peer, target, MsgType::kCheckpoint, body_of(ahead));
  cluster.sim().run_for(millis(1));
  EXPECT_EQ(count(cluster, target, "stale_drops"), drops + 4);
  EXPECT_EQ(count(cluster, target, "auth_failures"), failures + 1);
}

/// Makes every replica drop, on delivery, each packet whose envelope `env`
/// makes `drop(sender rank, receiver rank, env)` hold (a client's rank is
/// -1).
void drop_at_replicas(Cluster& cluster, std::function<bool(int, int, const Envelope&)> drop) {
  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.network().set_inbound_filter(
        cluster.replica_id(rank), [&cluster, rank, drop](const net::Packet& packet) {
          const Result<Envelope> env = Envelope::decode(packet.payload);
          return !env.is_ok() || !drop(cluster.config().rank_of(packet.from), rank, env.value());
        });
  }
}

/// Runs `cluster` in 1 ms steps until `done` holds, for at most `limit`.
bool run_until(Cluster& cluster, const std::function<bool()>& done, std::int64_t limit) {
  for (std::int64_t waited = 0; !done(); waited += millis(1)) {
    if (waited >= limit) return false;
    cluster.sim().run_for(millis(1));
  }
  return true;
}

TEST(StaleDropTest, ReproposedSlotGetsThePreparesOfTheReplicaThatCommittedInTheOldView) {
  // In view 0 rank 3 alone prepares slot 1 and sends its COMMIT: rank 1
  // misses the PRE-PREPARE, only rank 2's PREPARE reaches rank 3, and no
  // COMMIT gets through. Then rank 0, the view-0 primary, crashes. View
  // 1's NEW-VIEW needs every live replica's VIEW-CHANGE, so it re-proposes
  // slot 1 from rank 3's prepared proof. Rank 3 still holds view 0's
  // proposal as prepared, and sent a COMMIT for it, but none in view 1: it
  // must count view 1's PREPAREs and send view 1's COMMIT, or ranks 1 and
  // 2 never reach 2f+1 COMMITs and the slot stalls into view change after
  // view change.
  Cluster cluster(fast_options(), counter_factory());
  bool view_0 = true;
  drop_at_replicas(cluster, [&view_0](int from, int to, const Envelope& env) {
    if (!view_0) return false;
    if (env.type == MsgType::kPrePrepare) return to == 1;
    if (env.type == MsgType::kPrepare) return from == 3 || to != 3;
    return env.type == MsgType::kCommit;
  });
  Client& client = cluster.add_client();
  std::optional<Result<Bytes>> outcome;
  client.invoke(BufView(to_bytes("add:5")), [&](Result<Bytes> r) { outcome = std::move(r); });
  cluster.sim().run_for(millis(5));
  ASSERT_EQ(count(cluster, cluster.replica_id(3), "commits_sent"), 1u);
  for (int rank = 0; rank < 3; ++rank) {
    ASSERT_EQ(count(cluster, cluster.replica_id(rank), "commits_sent"), 0u) << "rank " << rank;
  }
  cluster.crash_replica(0);
  view_0 = false;

  ASSERT_TRUE(run_until(cluster, [&] { return outcome.has_value(); }, millis(500)));
  ASSERT_TRUE(outcome->is_ok()) << outcome->status().to_string();
  EXPECT_EQ(to_string(outcome->value()), "VAL:5");
  cluster.sim().run_for(millis(5));
  EXPECT_EQ(count(cluster, cluster.replica_id(3), "commits_sent"), 2u);
  for (int rank = 1; rank < cluster.n(); ++rank) {
    const Replica& replica = cluster.replica(rank);
    EXPECT_EQ(replica.view().value, 1u) << "rank " << rank;
    EXPECT_FALSE(replica.in_view_change()) << "rank " << rank;
    EXPECT_EQ(replica.last_executed().value, 1u) << "rank " << rank;
    EXPECT_EQ(dynamic_cast<const CounterStateMachine&>(replica.app()).value(), 5)
        << "rank " << rank;
  }
}

TEST(StaleDropTest, LateReplyIsDroppedBeforeItsMac) {
  // Every replica is gone; the test speaks for them. While request 1 is in
  // flight, REPLYs with bad tags are checked and do not count; good ones
  // complete it. Afterwards a REPLY for it, forged or not, is dropped
  // unchecked and counted in late_replies. The view it carries is never
  // read, so a late REPLY claiming view 1 does not move the client's
  // primary: request 2 still goes to rank 0, the view-0 primary.
  Cluster cluster(fast_options(), counter_factory());
  Client& client = cluster.add_client();
  std::vector<std::unique_ptr<Impostor>> replicas;
  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.crash_replica(rank);
    replicas.push_back(std::make_unique<Impostor>(cluster, cluster.replica_id(rank)));
  }
  std::vector<NodeId> sent_to;
  cluster.network().set_interceptor(client.id(), [&sent_to](const net::Packet& p) {
    sent_to.push_back(p.to);
    return std::optional<BufView>(p.payload);
  });
  const auto reply = [&](int rank, std::uint64_t view) {
    ReplyMsg msg;
    msg.view = ViewId(view);
    msg.timestamp = 1;
    msg.client = client.id();
    msg.replica = cluster.replica_id(rank);
    msg.result = to_bytes("VAL:5");
    return body_of(msg);
  };
  const auto late_replies = [&] { return count(cluster, client.id(), "late_replies"); };

  std::optional<Result<Bytes>> outcome;
  client.invoke(BufView(to_bytes("add:5")), [&](Result<Bytes> r) { outcome = std::move(r); });
  cluster.sim().run_for(millis(1));
  for (int rank : {1, 2}) {
    send_forged(cluster, cluster.replica_id(rank), client.id(), MsgType::kReply, reply(rank, 0));
  }
  cluster.sim().run_for(millis(1));
  EXPECT_FALSE(outcome.has_value());
  EXPECT_EQ(late_replies(), 0u);

  for (int rank : {1, 2}) {
    replicas[static_cast<std::size_t>(rank)]->send(client.id(), MsgType::kReply, reply(rank, 0));
  }
  cluster.sim().run_for(millis(1));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_ok());
  EXPECT_EQ(late_replies(), 0u);

  send_forged(cluster, cluster.replica_id(3), client.id(), MsgType::kReply, reply(3, 0));
  replicas[3]->send(client.id(), MsgType::kReply, reply(3, 1));
  cluster.sim().run_for(millis(1));
  EXPECT_EQ(late_replies(), 2u);

  sent_to.clear();
  client.invoke(BufView(to_bytes("add:1")), [](Result<Bytes>) {});
  cluster.sim().run_for(millis(1));
  ASSERT_EQ(sent_to.size(), 1u);
  EXPECT_EQ(sent_to[0], cluster.replica_id(0));
}

}  // namespace
}  // namespace itdos::bft
