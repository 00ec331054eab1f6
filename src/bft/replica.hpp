// Castro-Liskov PBFT replica [6,7].
//
// Protocol phases implemented:
//   * normal case: REQUEST -> PRE-PREPARE -> PREPARE -> COMMIT -> execute ->
//     REPLY, with quorum 2f+1 out of n = 3f+1;
//   * checkpointing: every K executions a snapshot is hashed and announced;
//     2f+1 matching CHECKPOINTs make it stable and advance the low
//     watermark h (log entries <= h are garbage collected). The digest
//     covers the application's held entries by their digests, and the
//     checkpoint holds them by reference (StateMachine::snapshot);
//   * view change: backups that see a request stall past the timeout move to
//     view v+1 (VIEW-CHANGE with the prepared set P, signed); the new
//     primary assembles 2f+1 of them into NEW-VIEW with re-proposals O;
//     backups verify O against V before adopting it; client requests O
//     does not carry reach the new primary from the replicas that hold
//     them, and agreement messages of the new view that overtake its
//     NEW-VIEW wait until it is adopted;
//   * state transfer: a replica that learns of a stable checkpoint beyond
//     its own execution point fetches and verifies a snapshot (digest must
//     match the 2f+1 checkpoint certificate, and every held entry its own
//     digest), then resumes.
//
// Authentication: pairwise MACs for normal-case messages (the authenticator
// vector optimization [8]); signatures on VIEW-CHANGE so certificates can be
// relayed in NEW-VIEW.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "batch/former.hpp"
#include "bft/app.hpp"
#include "bft/config.hpp"
#include "bft/messages.hpp"
#include "common/counters.hpp"
#include "net/process.hpp"
#include "telemetry/telemetry.hpp"

namespace itdos::bft {

/// Wrap-safe bounded membership set over client timestamps: "has timestamp
/// t been executed / proposed / forwarded?". A floor (everything at or
/// below it is a member) plus a sparse set above it. Contiguous prefixes
/// collapse into the floor, so the sparse set stays empty under in-order
/// traffic (the classic single-outstanding-request client); with pipelining
/// it holds at most the out-of-order gap, and pruning raises the floor so
/// memory stays bounded even under hostile timestamp patterns. The sparse
/// capacity is 2 * kMaxPipelineDepth: a correct client's timestamps in flight
/// span fewer than 2 * pipeline_depth, so a live gap cannot be pruned.
/// Because a NEW-VIEW's re-proposals are not checked against client tags,
/// the replica refuses to track timestamps beyond floor + kMaxSparse (see
/// plausible_timestamp in replica.cpp) — everything it does track fits the
/// sparse set, so timestamps a Byzantine replica fabricates for a victim
/// client can never force the prune and raise the floor over live
/// requests.
class TsWindow {
 public:
  static constexpr std::size_t kMaxSparse = 64;

  bool contains(std::uint64_t ts) const {
    return counters::before_eq(ts, floor_) || sparse_.contains(ts);
  }

  void insert(std::uint64_t ts) {
    if (ts == floor_ + 1 && (sparse_.empty() || ts < *sparse_.begin())) {
      // In order: the set path would insert ts as the set's first element
      // and collapse it into the floor at once, so raise the floor without
      // touching the set.
      ++floor_;
      collapse();
      return;
    }
    if (contains(ts)) return;
    sparse_.insert(ts);
    collapse();
  }

  /// Forgets everything and restarts from `floor`.
  void reset_to(std::uint64_t floor) {
    floor_ = floor;
    sparse_.clear();
  }

  std::uint64_t floor() const { return floor_; }
  const std::set<std::uint64_t>& sparse() const { return sparse_; }

  bool operator==(const TsWindow&) const = default;

 private:
  void collapse() {
    for (;;) {
      if (!sparse_.empty() && *sparse_.begin() == floor_ + 1) {
        ++floor_;
        sparse_.erase(sparse_.begin());
      } else if (sparse_.size() > kMaxSparse) {
        floor_ = *sparse_.begin();
        sparse_.erase(sparse_.begin());
      } else {
        break;
      }
    }
  }

  std::uint64_t floor_ = 0;
  std::set<std::uint64_t> sparse_;
};

class Replica : public net::Process {
 public:
  Replica(net::Network& net, NodeId id, BftConfig config, const SessionKeys& keys,
          crypto::SigningKey signing_key,
          std::shared_ptr<const crypto::Keystore> keystore,
          std::unique_ptr<StateMachine> app);

  // Observers (tests and benches).
  ViewId view() const { return view_; }
  bool is_primary() const { return config_.primary_for(view_) == id(); }
  SeqNum last_executed() const { return SeqNum(last_executed_); }
  SeqNum stable_checkpoint_seq() const { return SeqNum(stable_seq_); }
  bool in_view_change() const { return in_view_change_; }
  /// Client REQUEST envelopes held for the next view (see ClientRecord).
  std::size_t held_requests() const;
  /// Agreement messages of the next view awaiting its NEW-VIEW.
  std::size_t buffered_next_view_messages() const { return next_view_msgs_.size(); }

  /// Proactively asks the group for state beyond our execution point (used
  /// by replacement elements joining with no history; f+1 matching replies
  /// certify the snapshot).
  void request_catch_up();

  // --- fault-injection hooks (src/fault/) ---

  /// Byzantine behaviors a compromised replica exhibits while active. All
  /// protocol logic stays honest; only the outbound message layer lies —
  /// which is exactly the attack surface pairwise MACs / signatures defend.
  struct ByzantineHooks {
    bool silent = false;        // drops every outbound protocol message
    bool corrupt_macs = false;  // authenticator tags are garbage (forged MACs)
    bool equivocate = false;    // primary: conflicting pre-prepares per backup
  };

  /// Installs (or, with a default-constructed value, clears) the Byzantine
  /// behavior set. Activated per replica by fault::FaultInjector.
  void set_byzantine(const ByzantineHooks& hooks) { byz_ = hooks; }
  const ByzantineHooks& byzantine() const { return byz_; }

  /// Re-multicasts this replica's most recent signed VIEW-CHANGE envelope
  /// verbatim (a stale-view replay attack; correct peers must discard it).
  /// No-op if the replica never sent a view change.
  void replay_stale_view_change();

  /// Observer fired on every execution: (seq, request digest). The fault
  /// oracle uses it to assert correct replicas never commit different
  /// requests at the same sequence number.
  using ExecutionObserver = std::function<void(SeqNum, const Digest&)>;
  void set_execution_observer(ExecutionObserver observer) {
    execution_observer_ = std::move(observer);
  }

  const StateMachine& app() const { return *app_; }
  StateMachine& app() { return *app_; }

 protected:
  void on_packet(const net::Packet& packet) override;

 private:
  /// One replica's votes in a slot: the digests it prepared and committed.
  struct RankVotes {
    std::optional<Digest> prepare;
    std::optional<Digest> commit;
  };

  struct LogEntry {
    std::uint64_t seq = 0;         // the sequence number the entry holds
    std::optional<PrePrepareMsg> pre_prepare;
    // The SHA-256 of each batch entry's payload, in batch order: computed
    // once, when the proposal was checked (the primary's while it verified
    // each REQUEST), and handed to StateMachine::execute.
    std::vector<Digest> payload_digests;
    std::vector<RankVotes> votes;  // by replica rank, sized to n on first use
    ViewId votes_view;             // the view every vote in `votes` was cast in
    // The proposal this slot last prepared, in the view it prepared in: what
    // this replica's VIEW-CHANGEs claim for the slot (PBFT's P set) until it
    // prepares in a later view. A new view's votes replace `votes`, not this.
    std::optional<PrePrepareMsg> prepared;
    bool committed = false;
    bool executed = false;
    std::uint64_t trace = 0;      // request-scoped trace id (0 = untraced)
    SimTime first_seen{-1};       // when the pre-prepare entered the log
  };

  struct ClientRecord {
    TsWindow executed;   // timestamps whose execution completed (dedup)
    TsWindow proposed;   // primary: timestamps already in the pipeline
    TsWindow forwarded;  // backup: timestamps already relayed
    std::uint64_t last_timestamp = 0;        // highest executed timestamp
    // (ts, cached reply) for the newest 2 * pipeline_depth executed
    // timestamps, in ascending ts order. A correct client keeps the
    // timestamps it has in flight within 2 * pipeline_depth of its oldest
    // undecided one (Client::pump), so every timestamp it can still
    // retransmit is among its newest 2 * pipeline_depth executed ones and
    // is answered from cache. The config is replicated, so every correct
    // replica evicts identically. Flat: a few entries, no node per reply.
    std::vector<std::pair<std::uint64_t, Bytes>> replies;
    // The MAC key shared with the client, looked up on the first reply.
    const crypto::CmacKey* reply_key = nullptr;
    // ts -> the client-authenticated REQUEST envelope, for requests this
    // replica relayed, received during a view change, or held parked as a
    // demoted primary: what adopt_new_view hands to the next primary, so
    // a request outlives the view it arrived in without a client retry.
    // Only plausible timestamps, at most 2 * pipeline_depth (the lowest
    // go first), each dropped once it executes or a state transfer passes
    // it.
    std::map<std::uint64_t, BufView> held;
  };

  // --- message handlers ---
  /// `wire` is the envelope as it arrived (its only encoding): what a
  /// backup relays and what the replica holds for the next view.
  void handle_request(const Envelope& env, const BufView& wire);
  void handle_pre_prepare(const Envelope& env);
  void handle_prepare(const Envelope& env);
  void handle_commit(const Envelope& env);
  void handle_checkpoint(const Envelope& env);
  void handle_view_change(const Envelope& env);
  void handle_new_view(const Envelope& env);
  void handle_state_request(const Envelope& env);
  void handle_state_response(const Envelope& env);

  // --- normal case ---
  /// Flushes ripe batches out of the former and (re)arms the hold timer.
  void pump_former();
  /// Assigns one sequence slot to a formed batch and multicasts it: the
  /// only path from client requests to a PRE-PREPARE.
  void propose_batch(std::vector<batch::PendingEntry> entries);
  void maybe_send_commit(std::uint64_t seq);
  void try_execute();
  void execute_entry(std::uint64_t seq, LogEntry& entry);
  /// Executes one request of a committed slot (dedup, reply cache, REPLY);
  /// `digest` is its payload's.
  void execute_request(const RequestMsg& request, const Digest& digest, std::uint64_t seq);
  void update_inflight_gauge();
  /// Keeps `envelope` (client `record`'s request `ts`) for the next view,
  /// within the held-set bound.
  void hold_request(ClientRecord& record, std::uint64_t ts, BufView envelope);
  /// Moves the former's parked entries into the held store (a primary
  /// that leaves its view).
  void hand_over_former();
  /// On entering a view: the primary enqueues the held requests the view
  /// has not ordered, each backup relays them to it.
  void hand_over_held();
  /// Keeps `env`, an agreement message for `seq` in the view being
  /// changed to, in next_view_msgs_.
  void buffer_for_next_view(const Envelope& env, std::uint64_t seq);
  /// `record`'s cached reply for `ts`, or nullptr if the cache holds none.
  static const Bytes* cached_reply(const ClientRecord& record, std::uint64_t ts);
  /// Caches `result` as `record`'s reply for `ts`, evicting the lowest
  /// timestamps beyond the cache bound.
  void cache_reply(ClientRecord& record, std::uint64_t ts, Bytes&& result) const;
  /// Sends `result` to `request`'s client from `record`'s reply cache.
  void send_reply(ClientRecord& record, const RequestMsg& request, const Bytes& result);
  /// The log entry for `seq`, or nullptr if the log holds none.
  const LogEntry* find_entry(std::uint64_t seq) const;
  LogEntry* find_entry(std::uint64_t seq) {
    return const_cast<LogEntry*>(std::as_const(*this).find_entry(seq));
  }
  /// The log entry for `seq`, made empty first if none is held. `seq` must
  /// be above the low watermark.
  LogEntry& entry_at(std::uint64_t seq);
  /// Empties `entry` and gives it `seq`; the vote table keeps its storage.
  void clear_entry(LogEntry& entry, std::uint64_t seq) const;
  /// Drops what the log holds at or below the low watermark and moves
  /// entries the advanced window now covers into the ring.
  void truncate_log();
  bool entry_prepared(const LogEntry& entry) const;
  /// Replica `rank`'s votes in `entry`, for recording one cast in the
  /// current view; the first such vote drops every earlier view's.
  RankVotes& votes_of(LogEntry& entry, int rank);
  bool entry_committed(const LogEntry& entry) const;
  bool in_window(std::uint64_t seq) const;

  // --- checkpoints & state transfer ---
  void take_checkpoint(std::uint64_t seq);
  void process_checkpoint_vote(const CheckpointMsg& msg);
  /// Ranks whose latest CHECKPOINT for `seq` announced `digest`.
  int checkpoint_support(std::uint64_t seq, const Digest& digest) const;
  /// Makes the pending checkpoint at `seq` stable (its certificate formed).
  void make_stable(std::uint64_t seq);

  /// The replicated state at one execution point. `state` is the client
  /// table, the application state and the digests of the entries the
  /// application holds by reference in `held`; `digest` binds `state` to
  /// the point's sequence number and covers no held byte.
  struct Checkpoint {
    Bytes state;
    std::vector<BufView> held;
    Digest digest{};
  };
  /// The state at `seq` (the current execution point); copies no held entry.
  Checkpoint make_checkpoint(std::uint64_t seq) const;
  /// The snapshot a STATE-RESPONSE carries: `state`, then each held entry.
  static Bytes serialize(const Checkpoint& checkpoint);
  /// Installs a received snapshot after checking `state` against `digest`
  /// and every held entry against its own digest; held entries stay views
  /// into `snapshot`.
  Status install_snapshot(std::uint64_t seq, const Digest& digest, const BufView& snapshot);
  void request_state_transfer(std::uint64_t seq, const Digest& digest);
  void after_install(ViewId sender_view);
  void help_laggard(NodeId laggard);
  /// Records protocol traffic referencing `seq`; if it is beyond our window
  /// we are behind and (rate-limited) ask the group for state.
  void observe_seq(std::uint64_t seq);

  // --- view change ---
  void start_view_change(ViewId new_view);
  void process_view_change_quorum(ViewId new_view);
  void adopt_new_view(const NewViewMsg& msg);
  std::vector<PrePrepareMsg> compute_new_view_pre_prepares(
      ViewId view, const std::vector<SignedViewChange>& vcs,
      std::uint64_t* min_s_out, std::uint64_t* max_s_out) const;

  // --- plumbing ---
  /// Writes `msg` into a frame, tags it for every peer and multicasts it.
  template <typename Msg>
  void multicast_authenticated(const Msg& msg) {
    Frame frame(id(), msg, Frame::trailer_bound(peers_.size(), false));
    multicast_frame(frame);
  }
  /// Writes `msg` into a frame and sends it to `to` with one authenticator,
  /// under the key it shares with `to`.
  template <typename Msg>
  void send_authenticated(NodeId to, const Msg& msg) {
    send_authenticated(to, msg, key_for(to));
  }
  /// As above, under `key` (a reply's cached client key).
  template <typename Msg>
  void send_authenticated(NodeId to, const Msg& msg, const crypto::CmacKey& key) {
    Frame frame(id(), msg, Frame::trailer_bound(1, false));
    send_frame(to, frame, key);
  }
  void multicast_frame(Frame& frame);
  void send_frame(NodeId to, Frame& frame, const crypto::CmacKey& key);
  /// The key this replica shares with `to`.
  const crypto::CmacKey& key_for(NodeId to);
  /// The MAC keys shared with each replica: by rank (null for this one)
  /// and by peer in peers_ order. Looked up once, on first use, so a
  /// deployment's set-up derives no key its traffic never uses.
  struct ReplicaKeys {
    std::vector<const crypto::CmacKey*> by_rank;
    std::vector<const crypto::CmacKey*> peers;
  };
  const ReplicaKeys& replica_keys();
  /// Checks `env`'s signature or this replica's MAC entry. For a REQUEST
  /// it hashes the payload once and stores that payload_digest in
  /// `*request_digest` (if given).
  Status verify_envelope(const Envelope& env, Digest* request_digest = nullptr);
  /// Whether `env`, not yet authenticated, is a vote or CHECKPOINT that can
  /// no longer change this replica's state (DESIGN.md §6k): judged from
  /// its fixed-offset fields with read-only lookups, so it is dropped
  /// before its MAC is checked or its body decoded.
  bool stale(const Envelope& env) const;
  /// Counts and logs a message that failed verification.
  void reject(const Envelope& env, const Status& why);
  /// Whether batch entry `entry`, a request from `client` whose
  /// payload_digest is `payload`, carries a valid tag for this replica.
  bool entry_authentic(NodeId client, const batch::BatchEntry& entry,
                       const Digest& payload) const;
  /// Closes the active view's trace span and opens `view`'s (no-op if the
  /// active view is unchanged).
  void enter_view(ViewId view);
  void arm_request_timer();
  void disarm_request_timer();
  void on_request_timeout();

  BftConfig config_;
  int self_rank_;  // config_.rank_of(id())
  std::vector<NodeId> peers_;              // every replica but this one
  std::vector<crypto::MacTag> peer_tags_;  // multicast authenticators, by peer
  std::vector<Digest> checked_digests_;    // a PRE-PREPARE's payload digests, in its check
  const SessionKeys& keys_;
  ReplicaKeys replica_keys_;  // see replica_keys()
  crypto::SigningKey signing_key_;
  std::shared_ptr<const crypto::Keystore> keystore_;
  std::unique_ptr<StateMachine> app_;

  // Registry-backed counters (stable addresses, resolved once at
  // construction) plus the ordering-latency histogram.
  telemetry::Hub* tel_;
  struct {
    telemetry::Counter* requests_received;
    telemetry::Counter* pre_prepares_sent;
    telemetry::Counter* prepares_sent;
    telemetry::Counter* commits_sent;
    telemetry::Counter* replies_sent;
    telemetry::Counter* checkpoints_sent;
    telemetry::Counter* view_changes_sent;
    telemetry::Counter* new_views_sent;
    telemetry::Counter* executed;
    telemetry::Counter* state_transfers;
    telemetry::Counter* auth_failures;
    telemetry::Counter* malformed;
    telemetry::Counter* stale_drops;        // dropped unauthenticated (stale())
    telemetry::Counter* macs_computed;      // pairwise MAC tags produced
    telemetry::Gauge* inflight;             // agreement instances in flight
    telemetry::Histogram* exec_latency_ns;  // pre-prepare logged -> executed
    telemetry::Histogram* batch_size;       // capped entries per formed batch
    telemetry::Histogram* batch_hold_ns;    // formation hold per capped entry
  } metrics_;

  // Protocol state.
  ViewId view_;
  bool in_view_change_ = false;
  std::uint64_t next_seq_ = 0;       // primary: last assigned seq
  std::uint64_t last_executed_ = 0;
  std::uint64_t stable_seq_ = 0;     // h
  Checkpoint stable_;                // the checkpoint at h (for state transfer)
  // The agreement log: a ring of watermark_window() entries, sequence
  // number s in log_[s % window] while s is inside the window. An entry
  // whose seq is not s is from an earlier lap and reads as empty.
  std::vector<LogEntry> log_;
  // Re-proposals a NEW-VIEW carries past the window of a replica that is
  // behind; truncate_log moves them into the ring as the window advances.
  // Empty outside that case.
  std::map<std::uint64_t, LogEntry> log_ahead_;
  std::uint64_t top_logged_ = 0;     // highest seq an entry got a pre-prepare for
  std::map<NodeId, ClientRecord> clients_;
  // seq -> each rank's latest CHECKPOINT digest for it (by rank, sized n).
  std::map<std::uint64_t, std::vector<std::optional<Digest>>> checkpoint_votes_;
  // Checkpoints taken but not yet stable, so certifying one hashes nothing.
  std::map<std::uint64_t, Checkpoint> pending_checkpoints_;

  // Batch formation (primary only): every client request reaches a slot
  // through here; at max_entries = 1 each client entry is cut on arrival,
  // together with the riders parked before it. The
  // former doubles as the backlog while the watermark window is full:
  // make_stable, after_install and adopt_new_view pump it again. Parked
  // entries are views into the relayed wire buffers — no copies.
  batch::Former former_;
  net::EventHandle hold_timer_{};
  bool hold_timer_armed_ = false;

  // View change bookkeeping.
  std::map<ViewId, std::map<NodeId, SignedViewChange>> view_change_msgs_;
  // Agreement messages of the view this replica is changing to, heard
  // before its NEW-VIEW: that view's primary proposes as soon as it sends
  // NEW-VIEW, and backups that adopted first prepare and commit. The
  // first per (type, seq, sender), seq inside the watermark window, so
  // at most one window's worth per sender and type; adopt_new_view
  // replays them in that order.
  using NextViewKey = std::tuple<MsgType, std::uint64_t, NodeId>;
  std::map<NextViewKey, Envelope> next_view_msgs_;
  ViewId highest_view_change_sent_;
  int view_change_attempts_ = 0;  // consecutive failed attempts (backoff)

  // Outstanding state transfer target (seq, digest).
  std::optional<std::pair<std::uint64_t, Digest>> state_transfer_target_;

  // Weak state certificates: unsolicited STATE-RESPONSEs (e.g. peers helping
  // a laggard whose VIEW-CHANGE revealed it is behind). f+1 distinct senders
  // offering the same (seq, digest) certify it (at least one is correct).
  std::map<std::uint64_t, std::map<Digest, std::set<NodeId>>> state_offers_;

  // Liveness timer (backup: request pending too long -> view change).
  net::EventHandle request_timer_{};
  bool request_timer_armed_ = false;

  // Catch-up probing: highest sequence seen in authenticated traffic, and a
  // cooldown so out-of-window evidence triggers at most one STATE-REQ per
  // period (a Byzantine peer inflating seqs costs bounded requests).
  std::uint64_t max_observed_seq_ = 0;
  bool catch_up_cooldown_ = false;

  // Fault-injection state (src/fault/): active Byzantine behaviors, the last
  // signed VIEW-CHANGE envelope (stale-replay ammunition), the oracle's
  // execution observer, and the view whose span is currently open.
  ByzantineHooks byz_;
  BufView last_view_change_envelope_;
  ExecutionObserver execution_observer_;
  ViewId active_view_;
};

}  // namespace itdos::bft
