// Adversarial tests driving a rogue primary directly against the backups:
// dual-decodable batch bytes and bare requests in place of a batch, entries
// no client sent (fabricated requests, far-future timestamps, queue acks in
// an element's name), and batches packed past the cluster's formation
// policy or rider bound. The rogue holds the real primary's MAC keys —
// exactly the power a compromised replica has — but no client's: an entry
// it makes up carries no valid client tag. Where a test needs a batch
// backups accept, it tags the entries with the client's keys.
#include <gtest/gtest.h>

#include <functional>
#include <initializer_list>
#include <vector>

#include "batch/batch_msg.hpp"
#include "bft/harness.hpp"
#include "bft/messages.hpp"
#include "bft/replica.hpp"
#include "client_auth.hpp"
#include "wire.hpp"
#include "common/rng.hpp"
#include "crypto/signing.hpp"
#include "net/process.hpp"

namespace itdos::bft {
namespace {

ClusterOptions rogue_options(int f = 1, std::uint64_t seed = 1) {
  ClusterOptions opts;
  opts.f = f;
  opts.seed = seed;
  opts.net_config.min_delay_ns = micros(20);
  opts.net_config.max_delay_ns = micros(80);
  opts.batch.max_entries = 8;
  opts.batch.max_hold_ns = micros(150);
  opts.pipeline_depth = 8;
  return opts;
}

/// Replaces the (crashed) view-0 primary on the network and speaks the
/// protocol with the primary's pairwise MAC keys, but sends whatever the
/// test crafts.
class RoguePrimary : public net::Process {
 public:
  explicit RoguePrimary(Cluster& cluster)
      : net::Process(cluster.network(), cluster.replica_id(0)), cluster_(cluster) {}

  void send_pre_prepare(int rank, const PrePrepareMsg& pp) {
    send_body(rank, MsgType::kPrePrepare, body_of(pp));
  }

  /// A PRE-PREPARE body of any bytes, authenticated as the protocol does.
  void send_pre_prepare_body(int rank, Bytes body) {
    send_body(rank, MsgType::kPrePrepare, std::move(body));
  }

  /// Authenticates `pp` as the protocol does, then alters its body in
  /// flight with `tamper`: the MAC entries are those of the honest bytes.
  void send_tampered_pre_prepare(int rank, const PrePrepareMsg& pp,
                                 const std::function<void(Bytes&)>& tamper) {
    send_body(rank, MsgType::kPrePrepare, body_of(pp), tamper);
  }

  /// Signs `pp` with `key` in place of MAC authenticators, as replicas do
  /// for VIEW-CHANGE and NEW-VIEW.
  void send_signed_pre_prepare(int rank, const PrePrepareMsg& pp,
                               const crypto::SigningKey& key) {
    Envelope env;
    env.type = MsgType::kPrePrepare;
    env.sender = id();
    env.body = BufView(body_of(pp));
    env.signature = key.sign(env.body);
    send_to(cluster_.replica_id(rank), wire_of(env));
  }

  void send_commit(int rank, SeqNum seq, const Digest& digest) {
    CommitMsg commit;
    commit.view = ViewId(0);
    commit.seq = seq;
    commit.req_digest = digest;
    commit.replica = id();
    send_body(rank, MsgType::kCommit, body_of(commit));
  }

 protected:
  void on_packet(const net::Packet&) override {}  // drops everything

 private:
  void send_body(int rank, MsgType type, Bytes body_bytes,
                 const std::function<void(Bytes&)>& tamper = nullptr) {
    const NodeId to = cluster_.replica_id(rank);
    Envelope env;
    env.type = type;
    env.sender = id();
    Bytes entry;
    add_entry(entry, to, cluster_.keys().tag(id(), to, mac_input(type, body_bytes)));
    env.auth = AuthVector(BufView(std::move(entry)));
    if (tamper) tamper(body_bytes);
    env.body = BufView(std::move(body_bytes));
    send_to(to, wire_of(env));
  }

  Cluster& cluster_;
};

/// `requests` as one batch, each entry tagged by its client for every
/// replica.
batch::BatchMsg tagged_batch(const Cluster& cluster, std::initializer_list<Bytes> requests) {
  batch::BatchMsg batch;
  for (const Bytes& request : requests) {
    batch.entries.push_back(client_entry(cluster.keys(), cluster.config(), request));
  }
  return batch;
}

/// The view-0 proposal of `batch` at `seq`, with its proposal digest.
PrePrepareMsg proposal(std::uint64_t seq, const batch::BatchMsg& batch) {
  PrePrepareMsg pp;
  pp.view = ViewId(0);
  pp.seq = SeqNum(seq);
  pp.request = batch.encode();
  pp.req_digest = proposal_digest(batch);
  return pp;
}

/// A batch whose bytes decode BOTH as a two-entry BatchMsg and as a single
/// RequestMsg. Each entry is a 20-byte empty-payload request of client 7
/// followed by its four authenticators. Read as a RequestMsg, [count][len1]
/// is the client id, entry 1's client is the timestamp (7), and the low
/// half of entry 1's timestamp is the payload length: set to exactly the
/// bytes after the first 20, so both decoders hit the end.
batch::BatchMsg make_dual_decodable(const Cluster& cluster) {
  const auto with_first_ts = [&](std::uint64_t ts) {
    return tagged_batch(cluster, {encode_request(7, ts), encode_request(7, ts + 1)});
  };
  const std::size_t size = with_first_ts(0).encode().size();
  return with_first_ts(size - kRequestHeaderSize);
}

/// A `bft.*` counter of the replica at `rank`.
std::uint64_t replica_count(Cluster& cluster, int rank, std::string_view name) {
  return cluster.sim().telemetry().metrics().counter_value(
      telemetry::metric_name("bft", cluster.replica_id(rank), name));
}

const std::vector<Bytes>& log_of(Cluster& cluster, int rank) {
  return dynamic_cast<const LogStateMachine&>(cluster.replica(rank).app()).entries();
}

/// Payloads starting with '~' are riders: the formation class of the ITDOS
/// queue acks an element's self-client sends.
batch::EntryClass rider_class(ByteView request) {
  return !request.empty() && request.front() == '~' ? batch::EntryClass::kRider
                                                    : batch::EntryClass::kClient;
}

/// Counts requests like CounterStateMachine; riders execute as no-ops.
class RiderAwareCounter : public CounterStateMachine {
 public:
  batch::EntryClass classify(ByteView request) const override { return rider_class(request); }
};

/// Logs requests like LogStateMachine, riders included.
class RiderAwareLog : public LogStateMachine {
 public:
  batch::EntryClass classify(ByteView request) const override { return rider_class(request); }
};

TEST(ByzantinePrimaryTest, FramingEquivocationCannotDivergeExecution) {
  // Every PRE-PREPARE carries a batch, so bytes that also decode as a
  // single request have exactly one reading. The rogue hands the
  // dual-decodable bytes to every backup and pushes them toward commit:
  // every correct backup that executes them must run the same two-entry
  // batch, never the single-request reading (one payload of all the bytes
  // after the first 20). Entry 1's timestamp is that payload's length, so a
  // first slot of kWarmUp requests raises client 7's executed prefix until
  // it is a timestamp the replicas execute (see plausible_timestamp).
  constexpr std::uint64_t kWarmUp = 200;
  ClusterOptions opts = rogue_options();
  opts.batch.max_entries = static_cast<int>(kWarmUp);
  Cluster cluster(opts, [](int) { return std::make_unique<LogStateMachine>(); });
  cluster.crash_replica(0);
  RoguePrimary rogue(cluster);

  batch::BatchMsg warm_up;
  for (std::uint64_t ts = 1; ts <= kWarmUp; ++ts) {
    warm_up.entries.push_back(
        client_entry(cluster.keys(), cluster.config(), encode_request(7, ts)));
  }
  const batch::BatchMsg dual = make_dual_decodable(cluster);
  const PrePrepareMsg pp = proposal(2, dual);
  const Result<RequestMsg> single = RequestMsg::decode(pp.request);
  ASSERT_TRUE(single.is_ok());
  ASSERT_TRUE(batch::BatchMsg::decode(pp.request).is_ok());
  const std::uint64_t first_ts = RequestMsg::decode(dual.entries[0].request).value().timestamp;
  ASSERT_GT(first_ts, kWarmUp);
  ASSERT_LE(first_ts + 1, kWarmUp + TsWindow::kMaxSparse);

  for (const PrePrepareMsg& slot : {proposal(1, warm_up), pp}) {
    for (int rank = 1; rank <= 3; ++rank) {
      rogue.send_pre_prepare(rank, slot);
      rogue.send_commit(rank, slot.seq, slot.req_digest);
    }
  }
  cluster.sim().run_for(millis(40));

  const std::vector<Bytes> empty_entries(kWarmUp + 2);
  for (int rank = 1; rank <= 3; ++rank) {
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 2u) << "rank " << rank;
    EXPECT_EQ(log_of(cluster, rank), empty_entries) << "rank " << rank;
  }
}

TEST(ByzantinePrimaryTest, BareRequestInPlaceOfABatchIsMalformed) {
  // A PRE-PREPARE whose request is a bare RequestMsg that does not parse as
  // a batch has a valid MAC but no reading: every backup counts it
  // malformed and none prepares it.
  Cluster cluster(rogue_options(1, 11),
                  [](int) { return std::make_unique<LogStateMachine>(); });
  cluster.crash_replica(0);
  RoguePrimary rogue(cluster);

  const BufView bare(encode_request(7, 1, Bytes(64, 0xcd)));
  ASSERT_TRUE(RequestMsg::decode(bare).is_ok());
  ASSERT_FALSE(batch::BatchMsg::decode(bare).is_ok());

  PrePrepareMsg pp;
  pp.view = ViewId(0);
  pp.seq = SeqNum(1);
  pp.request = bare;
  pp.req_digest = crypto::sha256(ByteView(bare));
  for (int rank = 1; rank <= 3; ++rank) rogue.send_pre_prepare(rank, pp);
  cluster.sim().run_for(millis(40));

  for (int rank = 1; rank <= 3; ++rank) {
    EXPECT_EQ(replica_count(cluster, rank, "malformed"), 1u) << "rank " << rank;
    EXPECT_EQ(replica_count(cluster, rank, "prepares_sent"), 0u) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 0u) << "rank " << rank;
  }
}

TEST(ByzantinePrimaryTest, FabricatedFarFutureTimestampsCannotStarveClient) {
  // The rogue orders 66 widely spaced timestamps on behalf of the future
  // client 1000, whose key it holds (a leaked key, or a client colluding
  // with it), so the entries carry valid tags and every backup prepares and
  // runs the slots. If the replicas tracked those timestamps, the bounded
  // executed window would overflow and prune its floor above the client's
  // live timestamps: every real request would then read as an executed
  // duplicate with no cached reply, and the client would retry forever.
  // The plausibility guard must skip them instead.
  Cluster cluster(rogue_options(1, 3),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  cluster.crash_replica(0);
  RoguePrimary rogue(cluster);

  std::uint64_t seq = 1;
  std::uint64_t ts = 100;
  while (seq <= 66) {
    // Stay inside the watermark window; settling lets checkpoints stabilize
    // and the window advance between waves.
    for (int burst = 0; burst < 32 && seq <= 66; ++burst, ++seq, ts += 100) {
      batch::BatchMsg fabricated;
      fabricated.entries.push_back(
          client_entry(cluster.keys(), cluster.config(), encode_request(1000, ts)));
      const PrePrepareMsg pp = proposal(seq, fabricated);
      for (int rank = 1; rank <= 3; ++rank) rogue.send_pre_prepare(rank, pp);
    }
    cluster.settle();
  }
  // All three backups agreed and ran the slots (the fabrications are
  // skipped deterministically, not rejected: agreement stays live).
  for (int rank = 1; rank <= 3; ++rank) {
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 66u) << "rank " << rank;
    EXPECT_EQ(replica_count(cluster, rank, "auth_failures"), 0u) << "rank " << rank;
  }

  // The client connects and must get service: its timestamps start at 1,
  // far below the fabricated range. (The stalled rogue primary forces one
  // view change first; that is part of normal recovery.)
  Client& victim = cluster.add_client();
  ASSERT_EQ(victim.id(), NodeId(1000));
  const Result<Bytes> result = cluster.invoke_sync(victim, to_bytes("add:5"));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(to_string(result.value()), "VAL:5");
}

TEST(ByzantinePrimaryTest, UntaggedFarFutureTimestampsAreNeverPrepared) {
  // As above, but the rogue holds none of the client's keys: a window's
  // worth of slots, each ordering an untagged, widely spaced timestamp for
  // client 1000. No backup prepares or executes any of them, and the
  // client, once it connects, is served.
  Cluster cluster(rogue_options(1, 3),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  cluster.crash_replica(0);
  RoguePrimary rogue(cluster);

  const auto window = static_cast<std::uint64_t>(cluster.config().watermark_window());
  for (std::uint64_t seq = 1; seq <= window; ++seq) {
    batch::BatchMsg fabricated;
    fabricated.entries.push_back(untagged_entry(encode_request(1000, 100 * seq)));
    const PrePrepareMsg pp = proposal(seq, fabricated);
    for (int rank = 1; rank <= 3; ++rank) rogue.send_pre_prepare(rank, pp);
  }
  cluster.sim().run_for(millis(5));
  for (int rank = 1; rank <= 3; ++rank) {
    EXPECT_EQ(replica_count(cluster, rank, "auth_failures"), window) << "rank " << rank;
    EXPECT_EQ(replica_count(cluster, rank, "prepares_sent"), 0u) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 0u) << "rank " << rank;
  }

  Client& victim = cluster.add_client();
  const Result<Bytes> result = cluster.invoke_sync(victim, to_bytes("add:5"));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(to_string(result.value()), "VAL:5");
}

TEST(ByzantinePrimaryTest, EntriesNoClientTaggedAreNeverOrdered) {
  // The rogue orders a request it made up for the victim client 1000 (it
  // holds none of the client's keys, so the entry has no tags), and in a
  // second slot a queue ack in the name of an element's self-client 2000,
  // carrying the tags of a different ack. Every correct backup refuses
  // both: no PREPARE, one authentication failure per batch. Neither ever
  // executes, not even after the view change that replaces the stalled
  // rogue, and the new view serves a real client.
  Cluster cluster(rogue_options(1, 13), [](int) { return std::make_unique<RiderAwareLog>(); });
  cluster.crash_replica(0);
  RoguePrimary rogue(cluster);

  batch::BatchMsg fabricated;
  fabricated.entries.push_back(untagged_entry(encode_request(1000, 1, to_bytes("pay:mallory"))));
  batch::BatchMsg forged_ack;
  forged_ack.entries.push_back(
      client_entry(cluster.keys(), cluster.config(), encode_request(2000, 1, to_bytes("~ack:7"))));
  forged_ack.entries.front().request = BufView(encode_request(2000, 1, to_bytes("~ack:9")));
  std::uint64_t seq = 1;
  for (const batch::BatchMsg& batch : {fabricated, forged_ack}) {
    const PrePrepareMsg pp = proposal(seq++, batch);
    for (int rank = 1; rank <= 3; ++rank) {
      rogue.send_pre_prepare(rank, pp);
      rogue.send_commit(rank, pp.seq, pp.req_digest);
    }
  }
  cluster.sim().run_for(millis(5));
  for (int rank = 1; rank <= 3; ++rank) {
    EXPECT_EQ(replica_count(cluster, rank, "prepares_sent"), 0u) << "rank " << rank;
    EXPECT_EQ(replica_count(cluster, rank, "auth_failures"), 2u) << "rank " << rank;
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 0u) << "rank " << rank;
  }

  cluster.sim().run_for(millis(200));
  Client& client = cluster.add_client();
  const Result<Bytes> result = cluster.invoke_sync(client, to_bytes("hello"));
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  for (int rank = 1; rank <= 3; ++rank) {
    EXPECT_GE(cluster.replica(rank).view().value, 1u) << "rank " << rank;
    EXPECT_EQ(log_of(cluster, rank), std::vector<Bytes>{to_bytes("hello")}) << "rank " << rank;
  }
}

TEST(ByzantinePrimaryTest, BatchesBeyondConfiguredPolicyRejected) {
  // Protocol-wide decode limits allow 4096 entries; the cluster's policy
  // allows 8 entries / 64 bytes. Backups must hold a rogue primary to the
  // policy, not just the protocol ceiling.
  ClusterOptions opts = rogue_options(1, 5);
  opts.batch.max_bytes = 64;
  Cluster cluster(opts, [](int) { return std::make_unique<CounterStateMachine>(); });
  cluster.crash_replica(0);
  RoguePrimary rogue(cluster);

  // Every entry carries its client's tags: the caps alone reject them
  // (and count request frames only, not the authenticators).
  batch::BatchMsg overcount;  // 9 entries > max_entries = 8
  for (std::uint64_t i = 1; i <= 9; ++i) {
    overcount.entries.push_back(
        client_entry(cluster.keys(), cluster.config(), encode_request(7, i)));
  }
  const Bytes fat_payload(20, 0xab);  // 2 entries of 40 bytes > max_bytes = 64
  const batch::BatchMsg overbytes = tagged_batch(
      cluster, {encode_request(7, 1, fat_payload), encode_request(7, 2, fat_payload)});

  std::uint64_t seq = 1;
  for (const batch::BatchMsg& oversized : {overcount, overbytes}) {
    const PrePrepareMsg pp = proposal(seq++, oversized);
    for (int rank = 1; rank <= 3; ++rank) rogue.send_pre_prepare(rank, pp);
  }
  cluster.sim().run_for(millis(40));

  for (int rank = 1; rank <= 3; ++rank) {
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 0u) << "rank " << rank;
    EXPECT_GE(replica_count(cluster, rank, "malformed"), 2u) << "rank " << rank;
    EXPECT_EQ(replica_count(cluster, rank, "auth_failures"), 0u) << "rank " << rank;
  }
}


TEST(ByzantinePrimaryTest, BatchesBeyondMaxRidersRejected) {
  // Riders sit outside the count cap, but a batch carries at most
  // n * pipeline_depth of them (32 here) — the most a correct group has
  // outstanding. A full rider load beside a full count cap prepares; one
  // rider more is malformed.
  Cluster cluster(rogue_options(1, 7),
                  [](int) { return std::make_unique<RiderAwareCounter>(); });
  cluster.crash_replica(0);
  RoguePrimary rogue(cluster);
  const std::size_t max_riders = cluster.config().max_riders();
  ASSERT_EQ(max_riders, 32u);

  const Bytes rider = to_bytes("~ack");
  std::uint64_t ts = 1;
  const auto entry = [&](std::uint64_t client, std::uint64_t ts, const Bytes& payload) {
    return client_entry(cluster.keys(), cluster.config(), encode_request(client, ts, payload));
  };
  batch::BatchMsg full;  // 32 riders + 8 client entries
  for (std::size_t i = 0; i < max_riders; ++i) full.entries.push_back(entry(7, ts++, rider));
  for (int i = 0; i < 8; ++i) full.entries.push_back(entry(8, ts++, to_bytes("add:1")));
  batch::BatchMsg overfull;  // 33 riders
  for (std::size_t i = 0; i <= max_riders; ++i) overfull.entries.push_back(entry(7, ts++, rider));

  std::uint64_t seq = 1;
  for (const batch::BatchMsg& batch : {full, overfull}) {
    const PrePrepareMsg pp = proposal(seq++, batch);
    for (int rank = 1; rank <= 3; ++rank) rogue.send_pre_prepare(rank, pp);
  }
  cluster.sim().run_for(millis(40));

  for (int rank = 1; rank <= 3; ++rank) {
    EXPECT_EQ(cluster.replica(rank).last_executed().value, 1u) << "rank " << rank;
    EXPECT_EQ(replica_count(cluster, rank, "malformed"), 1u) << "rank " << rank;
    const auto& app = dynamic_cast<const CounterStateMachine&>(cluster.replica(rank).app());
    EXPECT_EQ(app.value(), 8) << "rank " << rank;
  }
}

TEST(ByzantinePrimaryTest, PrePrepareAuthenticatorBindsHeaderAndRequest) {
  // A PRE-PREPARE's MAC covers its 52-byte header; the request rides on
  // the header's digest. Each forgery below must be rejected before the
  // backup acts on it and counted as an authentication failure, exactly
  // like a bad MAC; the honest proposal afterwards must still be accepted.
  Cluster cluster(rogue_options(1, 7),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  cluster.crash_replica(0);
  RoguePrimary rogue(cluster);

  const PrePrepareMsg pp =
      proposal(1, tagged_batch(cluster, {encode_request(7, 1, Bytes(64, 0xcd))}));
  ASSERT_EQ(ByteView(authenticated_region(MsgType::kPrePrepare, body_of(pp))).size(),
            kPrePrepareHeaderSize);

  PrePrepareMsg null_request = pp;
  null_request.request = BufView();
  Bytes short_body = body_of(pp);
  short_body.resize(kPrePrepareHeaderSize - 4);

  const auto expect_rejected = [&](const char* what, const std::function<void()>& send) {
    const std::uint64_t before = replica_count(cluster, 1, "auth_failures");
    send();
    cluster.sim().run_for(millis(5));
    EXPECT_EQ(replica_count(cluster, 1, "auth_failures"), before + 1) << what;
    EXPECT_EQ(replica_count(cluster, 1, "prepares_sent"), 0u) << what;
  };
  expect_rejected("request altered after the MACs", [&] {
    rogue.send_tampered_pre_prepare(1, pp, [](Bytes& body) {
      body[kPrePrepareHeaderSize + 20] ^= 0x01;
    });
  });
  expect_rejected("header altered", [&] {
    rogue.send_tampered_pre_prepare(1, pp, [](Bytes& body) { body[8] ^= 0x01; });
  });
  expect_rejected("body shorter than the header",
                  [&] { rogue.send_pre_prepare_body(1, short_body); });
  expect_rejected("null request with a non-null digest",
                  [&] { rogue.send_pre_prepare(1, null_request); });

  const std::uint64_t before = replica_count(cluster, 1, "auth_failures");
  rogue.send_pre_prepare(1, pp);
  cluster.sim().run_for(millis(5));
  EXPECT_EQ(replica_count(cluster, 1, "auth_failures"), before);
  EXPECT_EQ(replica_count(cluster, 1, "prepares_sent"), 1u);
}

TEST(ByzantinePrimaryTest, SignedPrePrepareStillBindsItsRequest) {
  // A compromised primary also holds its signing key. Signing a PRE-PREPARE
  // instead of MACing it must not let a request that does not match
  // req_digest through: otherwise backups would agree on one digest while
  // each executes whichever bytes it was sent.
  Cluster cluster(rogue_options(1, 9),
                  [](int) { return std::make_unique<CounterStateMachine>(); });
  cluster.crash_replica(0);
  RoguePrimary rogue(cluster);
  // The Keystore is the PKI stand-in; re-issuing replica 0's key hands the
  // rogue a key the backups accept as replica 0's own.
  Rng key_rng(99);
  const crypto::SigningKey key =
      std::const_pointer_cast<crypto::Keystore>(cluster.keystore())
          ->issue(cluster.replica_id(0), key_rng);

  const PrePrepareMsg pp =
      proposal(1, tagged_batch(cluster, {encode_request(7, 1, Bytes(64, 0xcd))}));
  PrePrepareMsg altered = pp;
  altered.request =
      proposal(1, tagged_batch(cluster, {encode_request(7, 1, Bytes(64, 0xce))})).request;

  rogue.send_signed_pre_prepare(1, altered, key);
  cluster.sim().run_for(millis(5));
  EXPECT_EQ(replica_count(cluster, 1, "auth_failures"), 1u);
  EXPECT_EQ(replica_count(cluster, 1, "prepares_sent"), 0u);

  rogue.send_signed_pre_prepare(1, pp, key);  // the signature itself is good
  cluster.sim().run_for(millis(5));
  EXPECT_EQ(replica_count(cluster, 1, "auth_failures"), 1u);
  EXPECT_EQ(replica_count(cluster, 1, "prepares_sent"), 1u);
}

}  // namespace
}  // namespace itdos::bft
