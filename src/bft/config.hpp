// BFT group configuration and session-key material.
//
// A group of n = 3f+1 replicas tolerates f Byzantine members (paper §2,
// Bracha-Toueg [4], Castro-Liskov [6,7]). Message authentication uses
// pairwise symmetric MACs (the Castro-Liskov authenticator optimization);
// view-change certificates additionally use signatures.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "batch/former.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/time.hpp"
#include "crypto/cmac.hpp"
#include "crypto/hmac.hpp"

namespace itdos::bft {

/// Ceiling on client pipelining. The replicas' per-client dedup windows
/// (Replica::TsWindow) hold kMaxPipelineDepth * 2 sparse timestamps, so a
/// live out-of-order gap can never be pruned out from under a client that
/// respects this bound.
inline constexpr int kMaxPipelineDepth = 32;

struct BftConfig {
  int f = 1;
  std::vector<NodeId> replicas;  // size 3f+1, index == replica rank
  McastGroupId group;            // replicas' ordering multicast group

  /// Checkpoint every K executed requests; watermark window is 2K.
  std::int64_t checkpoint_interval = 16;

  /// Client retransmission (bft::Client): the RTO before the client's
  /// first round-trip sample, the cap on its measured RTO, and the
  /// interval between later broadcasts of the same request. A request is
  /// first broadcast to all replicas one RTO after it was sent.
  std::int64_t client_retry_ns = millis(40);

  /// Backup starts a view change this long after accepting a request whose
  /// execution has not completed.
  std::int64_t view_change_timeout_ns = millis(60);

  /// Request formation at the primary (src/batch): how many queued client
  /// requests may share one pre-prepare slot, the byte cap, and how long a
  /// request may be held waiting for batch-mates. max_entries = 1 keeps the
  /// classic one-request-per-slot path.
  batch::Policy batch;

  /// Client-side pipelining: requests a bft::Client keeps in flight before
  /// queueing. 1 = the paper's strict one-outstanding-request model.
  int pipeline_depth = 1;

  int n() const { return static_cast<int>(replicas.size()); }
  int quorum() const { return 2 * f + 1; }

  Status validate() const;

  bool is_replica(NodeId node) const;

  /// Rank of a replica in [0, n), or -1.
  int rank_of(NodeId node) const;

  /// Round-robin primary: replica (v mod n) leads view v.
  NodeId primary_for(ViewId view) const {
    return replicas[view.value % replicas.size()];
  }

  std::int64_t watermark_window() const { return 2 * checkpoint_interval; }

  /// Most riders (src/batch) one batch may carry. Riders come from clients
  /// co-located with the replicas (an ITDOS element's self-client), one per
  /// replica, each keeping at most pipeline_depth requests in flight, so a
  /// correct group never has more outstanding.
  std::size_t max_riders() const {
    return static_cast<std::size_t>(n()) * static_cast<std::size_t>(pipeline_depth);
  }
};

/// Pairwise MAC keys between all parties (replicas and clients). Derived
/// from a deployment master secret; stands in for the session-key exchange
/// a production deployment would run. A pair's tags are AES-256-CMAC under
/// k_mac = HMAC-SHA256(K_ab, "bft.mac"), where K_ab = key_for(a, b); the
/// label keeps the MAC key apart from the seal keys the key agent and GM
/// channels derive from K_ab. Each pair's CMAC key is expanded once and
/// cached for the life of this object (DESIGN.md §6j).
class SessionKeys {
 public:
  explicit SessionKeys(ByteView master_secret) : master_(master_secret) {}

  /// Symmetric key shared by nodes `a` and `b` (order-independent), derived
  /// afresh on each call. The key agent and GM channels seal with it.
  Bytes key_for(NodeId a, NodeId b) const;

  /// One pairwise tag with the (a, b) MAC key over `data`, or over the
  /// concatenation of `segments`. Caches the pair.
  crypto::MacTag tag(NodeId a, NodeId b, ByteView data) const;
  crypto::MacTag tag(NodeId a, NodeId b, std::span<const ByteView> segments) const;

  /// The (a, b) MAC key, derived and cached on first use. The reference
  /// stays valid for the life of this object, so a party looks its peers'
  /// keys up once and tags and verifies with them directly.
  const crypto::CmacKey& mac_key(NodeId a, NodeId b) const;

  /// Caches the pair only once `tag` has verified under it, so a sender
  /// that spoofs node ids cannot grow the cache.
  bool verify(NodeId a, NodeId b, std::span<const ByteView> segments,
              const crypto::MacTag& tag) const;

  /// Node pairs whose MAC key is cached.
  std::size_t cached_pairs() const { return pair_keys_.size(); }

 private:
  crypto::CmacKey derive_mac_key(NodeId a, NodeId b) const;

  crypto::HmacKey master_;
  // Keyed by (min, max) node id; ordered (DET-002).
  mutable std::map<std::pair<NodeId, NodeId>, crypto::CmacKey> pair_keys_;
};

}  // namespace itdos::bft
