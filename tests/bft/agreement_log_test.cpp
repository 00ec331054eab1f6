// The replica's agreement log is a ring of watermark_window() slots indexed
// by seq mod window. With checkpoint_interval = 2 the window is 4, so a few
// requests wrap the ring several times. These tests drive the ring through
// laps, a view change whose prepared set straddles the wrap, and a state
// transfer, and check the TsWindow in-order fast path against the set path.
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "bft/harness.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace itdos::bft {
namespace {

ClusterOptions ring_options(std::uint64_t seed = 1) {
  ClusterOptions opts;
  opts.seed = seed;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.checkpoint_interval = 2;  // watermark window 4
  return opts;
}

Cluster::AppFactory counter_factory() {
  return [](int) { return std::make_unique<CounterStateMachine>(); };
}

std::uint64_t replica_count(Cluster& cluster, int rank, std::string_view name) {
  return cluster.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("bft", cluster.replica_id(rank), name));
}

std::int64_t counter_value(Cluster& cluster, int rank) {
  return dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app()).value();
}

bool is_type(const net::Packet& packet, MsgType type) {
  return !packet.payload.empty() && packet.payload[0] == static_cast<std::uint8_t>(type);
}

TEST(AgreementLogTest, SerialRequestsLapTheRing) {
  Cluster cluster(ring_options(), counter_factory());
  ASSERT_EQ(cluster.config().watermark_window(), 4);
  Client& client = cluster.add_client();
  for (int i = 1; i <= 14; ++i) {  // three and a half laps
    const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("add:1"));
    ASSERT_TRUE(result.is_ok()) << "request " << i << ": " << result.status().to_string();
    EXPECT_EQ(to_string(result.value()), "VAL:" + std::to_string(i));
  }
  cluster.settle();
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 14u) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).stable_checkpoint_seq().value, 14u) << "rank " << rank;
    EXPECT_EQ(counter_value(cluster, rank), 14) << "rank " << rank;
    EXPECT_EQ(replica_count(cluster, rank, "executed"), 14u) << "rank " << rank;
  }
}

TEST(AgreementLogTest, PipelinedClientsFillWholeLaps) {
  // Four requests in flight per client keep every slot of the window busy,
  // so proposals run right up to the high watermark on each lap.
  ClusterOptions opts = ring_options(3);
  opts.pipeline_depth = 4;
  Cluster cluster(opts, counter_factory());
  Client& a = cluster.add_client();
  Client& b = cluster.add_client();
  int done = 0;
  for (int i = 0; i < 12; ++i) {
    a.invoke(to_bytes("add:1"), [&done](Result<Bytes> r) { done += r.is_ok() ? 1 : 0; });
    b.invoke(to_bytes("add:2"), [&done](Result<Bytes> r) { done += r.is_ok() ? 1 : 0; });
  }
  cluster.settle();
  EXPECT_EQ(done, 24);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_EQ(counter_value(cluster, rank), 36) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).last_executed(), cluster.replica(0).last_executed());
    EXPECT_GE(cluster.replica(rank).last_executed().value, 12u) << "rank " << rank;
  }
}

TEST(AgreementLogTest, ViewChangeAcrossTheWrapKeepsItsBytes) {
  // Ten serial requests make seq 10 stable, so the window is (10, 14] and
  // its slots, in seq order, are 3, 0, 1, 2. With every COMMIT dropped, four
  // pipelined requests prepare at seqs 11-14 but never commit; the request
  // timer then starts a view change whose prepared set spans the wrap.
  ClusterOptions opts = ring_options(7);
  opts.pipeline_depth = 4;
  Cluster cluster(opts, counter_factory());
  Client& client = cluster.add_client();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  for (int rank = 0; rank < cluster.n(); ++rank) {
    ASSERT_EQ(cluster.replica(rank).stable_checkpoint_seq().value, 10u) << "rank " << rank;
  }

  std::array<Bytes, 4> view_changes;  // each replica's first VIEW-CHANGE
  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.network().set_interceptor(
        cluster.replica_id(rank),
        [&view_changes, rank](const net::Packet& p) -> std::optional<BufView> {
          if (is_type(p, MsgType::kCommit)) return std::nullopt;
          if (is_type(p, MsgType::kViewChange) && view_changes[rank].empty()) {
            view_changes[rank] = p.payload.clone_bytes();
          }
          return p.payload;
        });
  }
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    client.invoke(to_bytes("add:10"), [&done](Result<Bytes> r) { done += r.is_ok() ? 1 : 0; });
  }
  cluster.sim().run_for(millis(100));
  EXPECT_EQ(done, 0);

  // The VIEW-CHANGE bytes are the ones the replica sent when its log was an
  // ordered map (SHA-256 of each whole signed envelope, by rank), re-pinned
  // twice since: when batch entries began to carry their clients'
  // authenticators and req_digest became a digest of payload digests, and
  // when the checkpoint state gained its held-entry digests (the count, 0
  // here), which moved the stable digest every VIEW-CHANGE carries.
  const std::array<std::string, 4> pinned = {
      "4e640c6d7f4cb87252d6d3dfe54fbac34ee948cf8866d48f2edfd6278370f02c",
      "a7917b234bc7fcd6be29bde76806208c739fd04dfea14eec413d468ddb75706b",
      "2f88d007ec3524003074472e08778dfe47288ed575bfd01c405306f695eaf08e",
      "54404d7dd5d5f27ed7deba7e29ec7827a2d215c133b0519900a0fb1b9ff9c64c",
  };
  for (int rank = 0; rank < cluster.n(); ++rank) {
    ASSERT_FALSE(view_changes[rank].empty()) << "rank " << rank << " sent no VIEW-CHANGE";
    const Result<Envelope> env = Envelope::decode(BufView(Bytes(view_changes[rank])));
    ASSERT_TRUE(env.is_ok());
    const Result<ViewChangeMsg> vc = ViewChangeMsg::decode(env.value().body);
    ASSERT_TRUE(vc.is_ok());
    EXPECT_EQ(vc.value().new_view, ViewId(1));
    EXPECT_EQ(vc.value().stable_seq, SeqNum(10));
    std::vector<std::uint64_t> seqs;
    for (const PreparedProof& proof : vc.value().prepared) seqs.push_back(proof.seq.value);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{11, 12, 13, 14})) << "rank " << rank;
    EXPECT_EQ(hex_encode(crypto::sha256(view_changes[rank])), pinned[rank]) << "rank " << rank;
  }

  // The new view re-proposes seqs 11-14 into the slots that already hold
  // their view-0 pre-prepares; the requests complete once commits flow again.
  for (int rank = 0; rank < cluster.n(); ++rank) {
    cluster.network().set_interceptor(cluster.replica_id(rank), nullptr);
  }
  cluster.settle();
  EXPECT_EQ(done, 4);
  for (int rank = 0; rank < cluster.n(); ++rank) {
    EXPECT_EQ(counter_value(cluster, rank), 50) << "rank " << rank;
    EXPECT_GE(cluster.replica(rank).view().value, 1u) << "rank " << rank;
    EXPECT_FALSE(cluster.replica(rank).in_view_change()) << "rank " << rank;
  }
}

TEST(AgreementLogTest, StateTransferLeavesNoEarlierLapInTheRing) {
  // Rank 3 logs pre-prepares for seqs 3 and 4 (slots 3 and 0) but never
  // sees them commit, then is cut off while the group runs two more laps.
  // After it installs a later checkpoint, seqs that land in those slots
  // must find them empty: rank 3 prepares and executes them itself.
  Cluster cluster(ring_options(11), counter_factory());
  const NodeId lagger = cluster.replica_id(3);
  Client& client = cluster.add_client();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  // Neither the commits nor the checkpoint that would let rank 3 execute
  // or fetch seqs 3 and 4 reach it. (No settling while it is behind: its
  // view-change timer would re-arm forever.)
  for (int rank = 0; rank < 3; ++rank) {
    cluster.network().set_interceptor(
        cluster.replica_id(rank), [lagger](const net::Packet& p) -> std::optional<BufView> {
          if (p.to == lagger &&
              (is_type(p, MsgType::kCommit) || is_type(p, MsgType::kCheckpoint))) {
            return std::nullopt;
          }
          return p.payload;
        });
  }
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  EXPECT_EQ(cluster.replica(3).last_executed().value, 2u);
  for (int rank = 0; rank < 3; ++rank) {
    cluster.network().set_interceptor(cluster.replica_id(rank), nullptr);
    cluster.network().set_link(lagger, cluster.replica_id(rank), false);
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  EXPECT_EQ(cluster.replica(3).last_executed().value, 2u);

  cluster.network().heal_all_links();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  ASSERT_GE(replica_count(cluster, 3, "state_transfers"), 1u);
  ASSERT_EQ(cluster.replica(3).last_executed(), cluster.replica(0).last_executed());

  // Two more laps, ordered with rank 3 taking part in every one.
  const std::uint64_t transfers = replica_count(cluster, 3, "state_transfers");
  const std::uint64_t prepares = replica_count(cluster, 3, "prepares_sent");
  const std::uint64_t executed = replica_count(cluster, 3, "executed");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cluster.invoke_sync(client, to_bytes("add:1")).is_ok());
  }
  cluster.settle();
  EXPECT_EQ(replica_count(cluster, 3, "state_transfers"), transfers);
  EXPECT_EQ(replica_count(cluster, 3, "prepares_sent"), prepares + 8);
  EXPECT_EQ(replica_count(cluster, 3, "executed"), executed + 8);
  EXPECT_EQ(cluster.replica(3).last_executed().value, 26u);
  EXPECT_EQ(counter_value(cluster, 3), 26);
}

/// Rank 3 misses the checkpoints at seqs 4 and 6, so its window stays
/// (2, 6], while the group prepares seqs 7-10 in view 0 and then moves to
/// view 1. The NEW-VIEW re-proposes 7-10, every one past rank 3's high
/// watermark, so rank 3 logs them beside the ring; its state transfer to
/// checkpoint 6 then moves them into slots 3, 0, 1, 2. Until release(),
/// everything the group sends rank 3 but the NEW-VIEW and the state offers
/// is held back (PREPAREs, COMMITs and CHECKPOINTs in send order) or dropped.
class BehindAtNewView {
 public:
  static constexpr int kLagger = 3;

  BehindAtNewView() : cluster_(options(), counter_factory()), client_(cluster_.add_client()) {}

  Cluster& cluster() { return cluster_; }
  Replica& lagger() { return cluster_.replica(kLagger); }
  std::uint64_t lagger_count(std::string_view name) {
    return replica_count(cluster_, kLagger, name);
  }

  /// Drives the scenario up to rank 3's state transfer.
  void run_to_state_transfer() {
    const NodeId lagger_id = cluster_.replica_id(kLagger);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(cluster_.invoke_sync(client_, to_bytes("add:1")).is_ok());
    }
    cluster_.settle();
    for (int rank = 0; rank < 3; ++rank) {
      cluster_.network().set_link(lagger_id, cluster_.replica_id(rank), false);
    }
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(cluster_.invoke_sync(client_, to_bytes("add:1")).is_ok());
    }
    cluster_.settle();  // rank 3 has nothing pending, so nothing re-arms
    ASSERT_EQ(cluster_.replica(0).stable_checkpoint_seq().value, 6u);
    ASSERT_EQ(lagger().stable_checkpoint_seq().value, 2u);
    cluster_.network().heal_all_links();

    cluster_.network().set_interceptor(
        client_.id(), [lagger_id](const net::Packet& p) -> std::optional<BufView> {
          if (p.to == lagger_id) return std::nullopt;  // no retransmission arms its timer
          return p.payload;
        });
    for (int rank = 0; rank < 3; ++rank) {
      cluster_.network().set_interceptor(
          cluster_.replica_id(rank),
          [this, lagger_id](const net::Packet& p) -> std::optional<BufView> {
            if (replaying_) return p.payload;
            if (is_type(p, MsgType::kNewView)) new_view_sent_ = true;
            if (p.to != lagger_id) {
              // Seqs 7-10 prepare in view 0 but never commit.
              if (!new_view_sent_ && is_type(p, MsgType::kCommit)) return std::nullopt;
              return p.payload;
            }
            if (is_type(p, MsgType::kNewView) || is_type(p, MsgType::kStateResponse)) {
              return p.payload;
            }
            if (new_view_sent_ && (is_type(p, MsgType::kPrepare) || is_type(p, MsgType::kCommit) ||
                                   is_type(p, MsgType::kCheckpoint))) {
              held_.push_back({p.from, p.to, std::nullopt, BufView(p.payload.clone_bytes())});
            }
            return std::nullopt;
          });
    }
    for (int i = 0; i < 4; ++i) {
      client_.invoke(to_bytes("add:10"), [this](Result<Bytes> r) { done_ += r.is_ok() ? 1 : 0; });
    }

    const std::uint64_t prepares = lagger_count("prepares_sent");
    ASSERT_TRUE(run_until([this] { return lagger().view().value == 1; }));
    // It adopted the NEW-VIEW from below the re-proposed seqs' window and
    // sent its PREPAREs for all four.
    EXPECT_EQ(lagger().stable_checkpoint_seq().value, 2u);
    EXPECT_EQ(lagger().last_executed().value, 2u);
    EXPECT_EQ(lagger_count("prepares_sent"), prepares + 4);
    ASSERT_TRUE(run_until([this] { return lagger_count("state_transfers") == 1; }));
    ASSERT_EQ(lagger().stable_checkpoint_seq().value, 6u);
    ASSERT_EQ(lagger().last_executed().value, 6u);
    ASSERT_EQ(counter_value(cluster_, kLagger), 6);
    ASSERT_FALSE(lagger().in_view_change());
  }

  /// Delivers the held packets of `type` to rank 3, in the order they were sent.
  void replay(MsgType type) {
    replaying_ = true;  // the senders' interceptors pass these through
    for (const net::Packet& p : std::vector<net::Packet>(held_)) {
      if (is_type(p, type)) cluster_.network().send(p.from, p.to, p.payload);
    }
    replaying_ = false;
  }

  /// Steps the simulation until `done()` holds (false if it never does).
  template <typename Pred>
  bool run_until(Pred done) {
    for (int step = 0; step < 200000 && !done(); ++step) {
      if (!cluster_.sim().step()) return done();
    }
    return done();
  }

  /// Stops holding and dropping.
  void release() {
    cluster_.network().set_interceptor(client_.id(), nullptr);
    for (int rank = 0; rank < 3; ++rank) {
      cluster_.network().set_interceptor(cluster_.replica_id(rank), nullptr);
    }
  }

  Client& client() { return client_; }
  int done() const { return done_; }

 private:
  static ClusterOptions options() {
    ClusterOptions opts = ring_options(13);
    opts.pipeline_depth = 4;
    return opts;
  }

  Cluster cluster_;
  Client& client_;
  bool new_view_sent_ = false;
  bool replaying_ = false;
  std::vector<net::Packet> held_;
  int done_ = 0;
};

TEST(AgreementLogTest, NewViewPastTheWindowExecutesAfterStateTransfer) {
  BehindAtNewView scenario;
  ASSERT_NO_FATAL_FAILURE(scenario.run_to_state_transfer());

  // The peers' PREPAREs and COMMITs find the moved pre-prepares: rank 3
  // commits and executes seqs 7-10 itself, with no second state transfer.
  const std::uint64_t commits = scenario.lagger_count("commits_sent");
  const std::uint64_t executed = scenario.lagger_count("executed");
  scenario.replay(MsgType::kPrepare);
  scenario.replay(MsgType::kCommit);
  ASSERT_TRUE(scenario.run_until([&] { return scenario.lagger().last_executed().value == 10; }));
  EXPECT_EQ(scenario.lagger_count("commits_sent"), commits + 4);
  EXPECT_EQ(scenario.lagger_count("executed"), executed + 4);
  EXPECT_EQ(counter_value(scenario.cluster(), BehindAtNewView::kLagger), 46);
  scenario.replay(MsgType::kCheckpoint);
  scenario.release();
  scenario.cluster().settle();
  EXPECT_EQ(scenario.done(), 4);
  EXPECT_EQ(scenario.lagger().stable_checkpoint_seq().value, 10u);

  // One more lap with rank 3 taking part in every slot.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(scenario.cluster().invoke_sync(scenario.client(), to_bytes("add:1")).is_ok());
  }
  scenario.cluster().settle();
  EXPECT_EQ(scenario.lagger_count("executed"), executed + 8);
  EXPECT_EQ(scenario.lagger_count("state_transfers"), 1u);
  EXPECT_EQ(scenario.lagger().last_executed().value, 14u);
  EXPECT_EQ(counter_value(scenario.cluster(), BehindAtNewView::kLagger), 50);
}

TEST(AgreementLogTest, MovedEntriesJoinTheNextViewChangeInOrder) {
  BehindAtNewView scenario;
  ASSERT_NO_FATAL_FAILURE(scenario.run_to_state_transfer());

  // With the PREPAREs delivered but the COMMITs still held, rank 3 prepares
  // seqs 7-10. A new request, copied to it, then arms its request timer
  // (the state transfer disarmed it), and the view change that follows
  // carries exactly those seqs as prepared, in order across the wrap.
  Bytes view_change;
  scenario.cluster().network().set_interceptor(
      scenario.cluster().replica_id(BehindAtNewView::kLagger),
      [&view_change](const net::Packet& p) -> std::optional<BufView> {
        if (view_change.empty() && is_type(p, MsgType::kViewChange)) {
          view_change = p.payload.clone_bytes();
        }
        return p.payload;
      });
  const std::uint64_t commits = scenario.lagger_count("commits_sent");
  scenario.replay(MsgType::kPrepare);
  ASSERT_TRUE(scenario.run_until(
      [&] { return scenario.lagger_count("commits_sent") == commits + 4; }));
  Bytes request;
  scenario.cluster().network().set_interceptor(
      scenario.client().id(), [&request](const net::Packet& p) -> std::optional<BufView> {
        if (request.empty() && is_type(p, MsgType::kRequest)) request = p.payload.clone_bytes();
        return p.payload;
      });
  scenario.client().invoke(to_bytes("add:1"), [](Result<Bytes>) {});
  ASSERT_TRUE(scenario.run_until([&] { return !request.empty(); }));
  scenario.cluster().network().send(scenario.client().id(),
                                    scenario.cluster().replica_id(BehindAtNewView::kLagger),
                                    BufView(Bytes(request)));
  ASSERT_TRUE(scenario.run_until([&] { return !view_change.empty(); }));
  EXPECT_EQ(scenario.lagger().last_executed().value, 6u);

  const Result<Envelope> env = Envelope::decode(BufView(Bytes(view_change)));
  ASSERT_TRUE(env.is_ok());
  const Result<ViewChangeMsg> vc = ViewChangeMsg::decode(env.value().body);
  ASSERT_TRUE(vc.is_ok());
  EXPECT_EQ(vc.value().new_view, ViewId(2));
  EXPECT_EQ(vc.value().stable_seq, SeqNum(6));
  std::vector<std::uint64_t> seqs;
  for (const PreparedProof& proof : vc.value().prepared) {
    seqs.push_back(proof.seq.value);
    EXPECT_EQ(proof.view, ViewId(1));
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{7, 8, 9, 10}));
}

/// TsWindow as it was before the in-order fast path: every insert goes
/// through the sparse set.
class SetPathWindow {
 public:
  void insert(std::uint64_t ts) {
    if (counters::before_eq(ts, floor_) || sparse_.contains(ts)) return;
    sparse_.insert(ts);
    for (;;) {
      if (!sparse_.empty() && *sparse_.begin() == floor_ + 1) {
        ++floor_;
        sparse_.erase(sparse_.begin());
      } else if (sparse_.size() > TsWindow::kMaxSparse) {
        floor_ = *sparse_.begin();
        sparse_.erase(sparse_.begin());
      } else {
        break;
      }
    }
  }
  void reset_to(std::uint64_t floor) {
    floor_ = floor;
    sparse_.clear();
  }
  std::uint64_t floor() const { return floor_; }
  const std::set<std::uint64_t>& sparse() const { return sparse_; }

 private:
  std::uint64_t floor_ = 0;
  std::set<std::uint64_t> sparse_;
};

TEST(TsWindowTest, InOrderFastPathMatchesTheSetPath) {
  Rng rng(4711);
  TsWindow fast;
  SetPathWindow reference;
  int in_order = 0;
  int prunes = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t floor = reference.floor();
    std::uint64_t ts = 0;
    const std::uint64_t kind = rng.next_below(100);
    if (kind < 50) {
      ts = floor + 1;  // in order
      ++in_order;
    } else if (kind < 80) {
      ts = floor + 2 + rng.next_below(2 * TsWindow::kMaxSparse);  // a gap
    } else if (kind < 90) {
      ts = floor - rng.next_below(4);  // at or below the floor (wraps at 0)
    } else if (kind < 99) {
      // A burst of distinct far timestamps overflows the sparse set.
      const std::uint64_t base = floor + 1000 + rng.next_below(1000);
      for (std::uint64_t i = 0; i <= TsWindow::kMaxSparse; ++i) {
        fast.insert(base + 3 * i);
        reference.insert(base + 3 * i);
      }
      ++prunes;
      ts = floor + 1;
    } else {
      const std::uint64_t to = rng.next_below(3) == 0 ? ~std::uint64_t{0} - 2 : floor + 5;
      fast.reset_to(to);
      reference.reset_to(to);
      continue;
    }
    fast.insert(ts);
    reference.insert(ts);
    ASSERT_EQ(fast.floor(), reference.floor()) << "step " << step;
    ASSERT_EQ(fast.sparse(), reference.sparse()) << "step " << step;
    ASSERT_LE(fast.sparse().size(), TsWindow::kMaxSparse);
  }
  EXPECT_GT(in_order, 5000);
  EXPECT_GT(prunes, 100);
}

}  // namespace
}  // namespace itdos::bft
