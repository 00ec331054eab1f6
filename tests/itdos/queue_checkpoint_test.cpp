// Checkpointing the message queue by entry digest: a checkpoint holds the
// queue's entries by reference and its digest covers their digests, so it
// costs per entry, not per byte; a state transfer hashes each entry again.
#include <gtest/gtest.h>

#include "bft/harness.hpp"
#include "itdos/queue.hpp"

namespace itdos::core {
namespace {

constexpr std::size_t kEntryBytes = 32 * 1024;

/// A request entry carrying `size` sealed bytes that depend on `rid`.
BufView request_entry(std::uint64_t rid, std::size_t size = kEntryBytes) {
  OrderedMsg msg;
  msg.conn = ConnectionId(1);
  msg.rid = RequestId(rid);
  msg.origin = NodeId(100);
  msg.epoch = KeyEpoch(1);
  Bytes sealed(size);
  for (std::size_t i = 0; i < size; ++i) {
    sealed[i] = static_cast<std::uint8_t>(i * rid + i / 7);
  }
  msg.sealed_giop = BufView(std::move(sealed));
  return msg.encode();
}

TEST(QueueCheckpointTest, SnapshotHoldsEntriesWithoutCopying) {
  QueueStateMachine queue(QueueOptions{});
  std::vector<BufView> entries;
  for (std::uint64_t rid = 1; rid <= 4; ++rid) {
    entries.push_back(request_entry(rid));
    bft::execute_with_digest(queue, entries.back(), NodeId(9), SeqNum(rid));
  }
  const std::uint64_t copies = BufStats::copies;
  const std::uint64_t bytes = BufStats::bytes_copied;
  const bft::AppSnapshot snapshot = queue.snapshot();
  EXPECT_EQ(BufStats::copies, copies);
  EXPECT_EQ(BufStats::bytes_copied, bytes);
  ASSERT_EQ(snapshot.held.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(snapshot.held[i].bytes.data(), entries[i].data()) << "entry " << i << " copied";
    EXPECT_EQ(snapshot.held[i].digest, crypto::sha256(entries[i])) << "entry " << i;
  }
  // The state names the window, not the entries' bytes.
  EXPECT_LT(snapshot.state.size(), kEntryBytes);
}

TEST(QueueCheckpointTest, QueuesWithTheSameEntriesAgreeOnTheirDigest) {
  // The same entries, one queue's as standalone buffers and the other's as
  // slices of one larger frame, give the same state and entry digests: what
  // a checkpoint digest covers.
  QueueStateMachine a(QueueOptions{});
  QueueStateMachine b(QueueOptions{});
  Bytes frame = {0xee, 0xee, 0xee};
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    const BufView entry = request_entry(rid, 1000 + rid);
    bft::execute_with_digest(a, entry, NodeId(9), SeqNum(rid));
    spans.emplace_back(frame.size(), entry.size());
    append(frame, entry);
    frame.push_back(0xee);
  }
  const BufView shared(std::move(frame));
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    const auto [offset, length] = spans[rid - 1];
    bft::execute_with_digest(b, shared.slice(offset, length), NodeId(9), SeqNum(rid));
  }
  bft::execute_with_digest(a, QueueAckMsg{NodeId(1), 1}.encode(), NodeId(1), SeqNum(4));
  bft::execute_with_digest(b, QueueAckMsg{NodeId(1), 1}.encode(), NodeId(1), SeqNum(4));
  const bft::AppSnapshot sa = a.snapshot();
  const bft::AppSnapshot sb = b.snapshot();
  EXPECT_EQ(sa.state, sb.state);
  ASSERT_EQ(sa.held.size(), sb.held.size());
  for (std::size_t i = 0; i < sa.held.size(); ++i) {
    EXPECT_EQ(sa.held[i].digest, sb.held[i].digest) << "entry " << i;
  }
  EXPECT_EQ(sa, sb);
}

TEST(QueueCheckpointTest, RestoreRejectsAWindowThatDoesNotMatchItsEntries) {
  QueueStateMachine source(QueueOptions{});
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    bft::execute_with_digest(source, request_entry(rid, 64), NodeId(9), SeqNum(rid));
  }
  bft::AppSnapshot snapshot = source.snapshot();
  snapshot.held.pop_back();
  QueueStateMachine target(QueueOptions{});
  EXPECT_FALSE(target.restore(snapshot).is_ok());
  EXPECT_EQ(target.next_index(), 0u);
}

bft::ClusterOptions checkpoint_options() {
  bft::ClusterOptions options;
  options.seed = 29;
  options.net_config.min_delay_ns = micros(20);
  options.net_config.max_delay_ns = micros(80);
  options.checkpoint_interval = 4;
  return options;
}

std::uint64_t replica_count(bft::Cluster& cluster, int rank, std::string_view name) {
  return cluster.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("bft", cluster.replica_id(rank), name));
}

const QueueStateMachine& queue_of(bft::Cluster& cluster, int rank) {
  return dynamic_cast<const QueueStateMachine&>(cluster.replica(rank).app());
}

TEST(QueueCheckpointTest, TakenCheckpointCopiesNoEntry) {
  bft::Cluster cluster(checkpoint_options(),
                       [](int) { return std::make_unique<QueueStateMachine>(QueueOptions{}); });
  bft::Client& client = cluster.add_client();
  const auto bytes_copied_by = [&](std::uint64_t rid) {
    const std::uint64_t before = BufStats::bytes_copied;
    EXPECT_TRUE(cluster.invoke_sync(client, request_entry(rid)).is_ok());
    cluster.settle();
    return BufStats::bytes_copied - before;
  };
  for (std::uint64_t rid = 1; rid <= 2; ++rid) (void)bytes_copied_by(rid);
  const std::uint64_t plain = bytes_copied_by(3);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_EQ(cluster.replica(rank).stable_checkpoint_seq().value, 0u);
  }
  // Seq 4 takes a checkpoint at every replica: its CHECKPOINT messages cost
  // a few counted digest and tag copies, and no replica copies an entry.
  const std::uint64_t checkpointed = bytes_copied_by(4);
  EXPECT_LT(checkpointed, plain + kEntryBytes);
  // Every replica's digest matched: the checkpoint is stable everywhere.
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_EQ(cluster.replica(rank).stable_checkpoint_seq().value, 4u) << "rank " << rank;
    // The queue, the stable checkpoint and this snapshot share each entry.
    const bft::AppSnapshot snapshot = queue_of(cluster, rank).snapshot();
    ASSERT_EQ(snapshot.held.size(), 4u);
    EXPECT_GE(snapshot.held[0].bytes.use_count(), 3) << "rank " << rank;
  }
}

/// A queue whose snapshots flip one byte of the first held entry and keep
/// its digest: a replica that serves state transfers with it lies about the
/// bytes, never about the checkpoint digest.
class FlippingQueue : public QueueStateMachine {
 public:
  FlippingQueue() : QueueStateMachine(QueueOptions{}) {}
  bft::AppSnapshot snapshot() const override {
    bft::AppSnapshot snapshot = QueueStateMachine::snapshot();
    if (!snapshot.held.empty()) {
      Bytes flipped = snapshot.held[0].bytes.clone_bytes();
      flipped.back() ^= 0x01;
      snapshot.held[0].bytes = BufView(std::move(flipped));
    }
    return snapshot;
  }
};

/// Runs four requests (one checkpoint), restarts rank 3 with no state and
/// has it catch up from its peers.
void catch_up_fresh_replica(bft::Cluster& cluster) {
  bft::Client& client = cluster.add_client();
  for (std::uint64_t rid = 1; rid <= 4; ++rid) {
    ASSERT_TRUE(cluster.invoke_sync(client, request_entry(rid)).is_ok());
  }
  cluster.settle();
  cluster.crash_replica(3);
  cluster.restart_replica(3);
  cluster.replica(3).request_catch_up();
  cluster.settle();
}

TEST(QueueCheckpointTest, StateTransferInstallsVerifiedEntries) {
  bft::Cluster cluster(checkpoint_options(),
                       [](int) { return std::make_unique<QueueStateMachine>(QueueOptions{}); });
  catch_up_fresh_replica(cluster);
  EXPECT_EQ(cluster.replica(3).last_executed().value, 4u);
  EXPECT_EQ(replica_count(cluster, 3, "state_transfers"), 1u);
  EXPECT_EQ(queue_of(cluster, 3).snapshot(), queue_of(cluster, 0).snapshot());
}

TEST(QueueCheckpointTest, InstallRejectsASnapshotWithOneEntryByteFlipped) {
  // Every peer serves a snapshot whose state and digests are right and one
  // entry byte is not: the checkpoint digest matches, the entry's does not.
  bft::Cluster cluster(checkpoint_options(), [](int rank) -> std::unique_ptr<bft::StateMachine> {
    if (rank == 3) return std::make_unique<QueueStateMachine>(QueueOptions{});
    return std::make_unique<FlippingQueue>();
  });
  catch_up_fresh_replica(cluster);
  EXPECT_EQ(cluster.replica(3).last_executed().value, 0u);
  EXPECT_EQ(replica_count(cluster, 3, "state_transfers"), 0u);
  EXPECT_GT(replica_count(cluster, 3, "auth_failures"), 0u);
  EXPECT_EQ(queue_of(cluster, 3).next_index(), 0u);
}

}  // namespace
}  // namespace itdos::core
