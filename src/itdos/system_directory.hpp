// Deployment topology shared by every ITDOS process: which domains exist,
// their elements (with per-element native byte order — the heterogeneity the
// system tolerates), the Group Manager's composition, vote policies and
// protocol timing. In a production system this is the configuration the
// paper's "configuration inputs" allude to; it is immutable after startup
// EXCEPT for recovery-driven element replacement: the deployment layer
// (ItdosSystem, holding the sole non-const handle) swaps one element's
// identities via replace_element when a fresh identity is admitted. The
// Group Manager never trusts these live reads for ordered decisions — it
// keeps its own replicated MembershipView (DESIGN.md §6d).
//
// Node-id layout: every element occupies several simulated-network endpoints
// (the moral equivalent of ports on one host):
//   bft_node        — the Castro-Liskov replica (ordering traffic)
//   smiop_node      — direct SMIOP traffic (key shares, direct replies);
//                     also the element's signing identity
//   gm_client_node  — BFT-client endpoint toward the Group Manager group
//   self_client_node— BFT-client endpoint toward the element's own group
//                     (queue-management acks, §3.1 GC)
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "bft/config.hpp"
#include "cdr/codec.hpp"
#include "crypto/dprf.hpp"
#include "itdos/voting.hpp"
#include "shard/shard_map.hpp"

namespace itdos::core {

struct ElementInfo {
  NodeId bft_node;
  NodeId smiop_node;
  NodeId gm_client_node;
  NodeId self_client_node;
  cdr::ByteOrder byte_order = cdr::ByteOrder::kLittleEndian;
};

struct ProtocolTiming {
  std::int64_t checkpoint_interval = 16;
  std::int64_t client_retry_ns = millis(40);  // initial RTO and its cap; later retries' interval
  std::int64_t view_change_timeout_ns = millis(60);
  std::int64_t reply_vote_timeout_ns = millis(500);  // voter gives up (§3.6 GC)
  std::uint64_t ack_interval = 8;  // consumer entries between queue acks

  /// Recovery watchdog: a replacement must be serving again within this long
  /// of being started, else the recovery manager aborts and retries with
  /// another fresh identity (DESIGN.md §6d).
  std::int64_t recovery_deadline_ns = seconds(2);

  /// Backoff between an aborted recovery attempt and its retry.
  std::int64_t recovery_retry_backoff_ns = millis(100);

  /// Admission control: replicated queue depth past which further ordered
  /// requests are shed deterministically with an explicit OVERLOAD reply
  /// (DESIGN.md §6f). 0 disables shedding (unbounded queues, the paper's
  /// baseline behaviour). Static config, identical at every element — the
  /// shed decision is part of the replicated state machine and must not be
  /// retuned at runtime.
  std::uint64_t admission_max_depth = 0;

  /// Batch formation at every domain's ordering primary (src/batch,
  /// DESIGN.md §6i): requests per pre-prepare slot (1 = off), byte cap,
  /// and the max hold a request waits for batch-mates. Applies uniformly
  /// to all domains including the Group Manager's.
  int batch_max_entries = 1;
  std::size_t batch_max_bytes = 64 * 1024;
  std::int64_t batch_max_hold_ns = micros(200);

  /// Pipelined agreement: in-flight window of every BFT client endpoint
  /// (party target clients, element self-clients, GM clients). 1 = the
  /// paper's one-outstanding-request model.
  int pipeline_depth = 1;
};

struct DomainInfo {
  DomainId id;
  int f = 1;
  McastGroupId group;
  std::vector<ElementInfo> elements;  // size 3f+1
  // Identities replacement swapped out, oldest first (append-only).
  std::vector<ElementInfo> retired;
  VotePolicy vote_policy = VotePolicy::exact();

  int n() const { return static_cast<int>(elements.size()); }

  /// The BFT group configuration for this domain's ordering group.
  bft::BftConfig make_bft_config(const ProtocolTiming& timing) const;

  /// Rank of an element by its SMIOP node, or -1.
  int rank_of_smiop(NodeId smiop_node) const;

  std::vector<NodeId> smiop_nodes() const;

  /// True when `client` is, or was, the self-client endpoint of the element
  /// whose SMIOP identity is `element`. Retired endpoints stay listed: an
  /// ack a replaced incarnation sent before the swap may be ordered after
  /// it, and every element must judge it alike (QueueOptions).
  bool is_self_client(NodeId element, NodeId client) const;
};

class SystemDirectory {
 public:
  SystemDirectory(DomainInfo gm, ProtocolTiming timing)
      : gm_(std::move(gm)), timing_(timing) {}

  const DomainInfo& gm() const { return gm_; }
  const ProtocolTiming& timing() const { return timing_; }

  void add_domain(DomainInfo info) { domains_.emplace(info.id, std::move(info)); }

  const DomainInfo* find_domain(DomainId id) const {
    const auto it = domains_.find(id);
    return it == domains_.end() ? nullptr : &it->second;
  }

  const std::map<DomainId, DomainInfo>& domains() const { return domains_; }

  /// The shard routing table: hash-partitioned object-key ranges, each
  /// owned by one replication domain. Empty in unsharded deployments.
  const shard::ShardMap& shards() const { return shards_; }

  /// Only the deployment layer (ItdosSystem / ShardTopology) mutates the
  /// table, before traffic starts; parties read it on the invocation path.
  shard::ShardMap& mutable_shards() { return shards_; }

  /// The lookup API for invocation targets: a routed ref (domain 0) maps to
  /// the owner of its key's shard range; a concrete domain is returned
  /// unchanged. Returns kRoutedDomain (0) for a routed key with no shard
  /// table — the caller surfaces that as "unroutable".
  DomainId resolve_target(DomainId domain, ObjectId key) const {
    return shard::is_routed(domain) ? shards_.route(key) : domain;
  }

  /// Recovery-driven identity swap: install fresh identities for one rank of
  /// a domain. Only the deployment layer (ItdosSystem) holds a non-const
  /// handle; ordered GM decisions never read the result directly (they use
  /// the replicated MembershipView).
  Status replace_element(DomainId domain, int rank, const ElementInfo& fresh);

  /// The BFT-client identity entitled to submit membership_update commands
  /// (the recovery manager). 0 (the default) rejects every membership update
  /// — deployments without a recovery subsystem keep the startup membership.
  NodeId recovery_authority() const { return recovery_authority_; }
  void set_recovery_authority(NodeId node) { recovery_authority_ = node; }

  /// DPRF parameters follow the GM's composition (§3.5: f+1 of 3f+1 GM
  /// elements must cooperate to form a key).
  crypto::DprfParams dprf_params() const {
    return crypto::DprfParams{gm_.n(), gm_.f};
  }

 private:
  DomainInfo gm_;
  ProtocolTiming timing_;
  std::map<DomainId, DomainInfo> domains_;
  shard::ShardMap shards_;
  NodeId recovery_authority_;
};

/// Monotonic NodeId allocator for building deployments.
class NodeAllocator {
 public:
  explicit NodeAllocator(std::uint64_t first = 1) : next_(first) {}
  NodeId next() { return NodeId(next_++); }

 private:
  std::uint64_t next_;
};

}  // namespace itdos::core
