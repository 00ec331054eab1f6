// ItdosSystem: the deployment builder — the library's front door.
//
// One call per moving part of Figure 1: construct the system (which brings
// up the Group Manager replication domain), add_domain() for each replicated
// server (3f+1 elements, heterogeneous byte orders, per-rank servant
// implementations), add_client() for singleton clients, and optionally
// protect_with_firewall(). See examples/quickstart.cpp for the 20-line
// version.
#pragma once

#include "itdos/domain_element.hpp"
#include "itdos/group_manager.hpp"
#include "itdos/smiop.hpp"

namespace itdos::core {

struct SystemOptions {
  std::uint64_t seed = 1;
  net::NetConfig net_config{micros(20), micros(80), 0.0, 0.0};
  ProtocolTiming timing;
  int gm_f = 1;  // Group Manager domain tolerates gm_f faulty elements

  /// Alternate element byte orders within each domain (the heterogeneity of
  /// the paper's title). When false, all elements marshal little-endian.
  bool heterogeneous = true;
};

struct ClientOptions {
  cdr::ByteOrder byte_order = cdr::native_byte_order();
  bool auto_report = true;
  std::optional<VotePolicy> policy_override;
};

/// A singleton ITDOS client: an Orb over the SMIOP protocol plus the
/// endpoint that receives key shares and (voted) replies.
class ItdosClient {
 public:
  ItdosClient(net::Network& net, std::shared_ptr<const SystemDirectory> directory,
              const bft::SessionKeys& keys,
              std::shared_ptr<const crypto::Keystore> keystore,
              std::shared_ptr<NodeAllocator> allocator, ClientOptions options);
  ~ItdosClient();

  orb::Orb& orb() { return *orb_; }
  SmiopParty& party() { return *party_; }
  NodeId smiop_node() const { return smiop_node_; }

 private:
  class Endpoint;

  NodeId smiop_node_;
  std::unique_ptr<SmiopParty> party_;
  std::unique_ptr<orb::Orb> orb_;
  std::unique_ptr<Endpoint> endpoint_;
};

class ItdosSystem {
 public:
  explicit ItdosSystem(SystemOptions options = {});
  ~ItdosSystem();

  // --- deployment ---

  /// Creates a replication domain of 3f+1 elements hosting the servants the
  /// installer activates (per rank, so implementations can differ).
  DomainId add_domain(int f, VotePolicy policy,
                      const DomainElement::ServantInstaller& install);

  ItdosClient& add_client(ClientOptions options = {});

  /// Puts every element of `domain` behind a firewall proxy (Figure 1's
  /// server-side firewalls). The proxy counts into `proxy.<domain>.*`.
  void protect_with_firewall(DomainId domain);

  // --- access ---

  net::Simulator& sim() { return sim_; }
  net::Network& network() { return net_; }
  const SystemDirectory& directory() const { return *directory_; }
  const bft::SessionKeys& keys() const { return keys_; }
  std::shared_ptr<const crypto::Keystore> keystore() const { return keystore_; }

  GmElement& gm_element(int index) { return *gm_elements_.at(index); }
  int gm_n() const { return static_cast<int>(gm_elements_.size()); }
  DomainElement& element(DomainId domain, int rank);
  /// False while a crashed slot waits for its replacement; element() must
  /// not be called on such a slot.
  bool element_up(DomainId domain, int rank) const;
  int domain_n(DomainId domain) const;

  /// Builds an object reference for an object key in a domain.
  orb::ObjectRef object_ref(DomainId domain, ObjectId key,
                            std::string interface_name) const;

  /// Builds a ROUTED reference: the hosting domain is resolved per-invoke
  /// from the shard map (location transparency across sharded domains).
  orb::ObjectRef routed_ref(ObjectId key, std::string interface_name) const;

  /// The shard routing table (mutable: deployment-time registration only;
  /// ShardTopology::build populates it).
  shard::ShardMap& shards() { return directory_->mutable_shards(); }

  // --- fault injection ---

  /// Crash-stops an element (both its replica and SMIOP endpoint vanish).
  void crash_element(DomainId domain, int rank);

  /// Brings up a REPLACEMENT element in a previously crashed slot (§4
  /// future work). The new element bootstraps from its peers: BFT queue via
  /// certified state transfer, servant state via f+1-matching sync bundles.
  /// Requires the domain's servants to implement save_state/load_state.
  DomainElement& replace_element(DomainId domain, int rank);

  // --- recovery (src/recovery/) ---

  /// The identities swapped by admit_replacement: `retired` is the old
  /// (expelled/crashed) element, `admitted` the fresh one now in the
  /// directory. The recovery manager feeds both into the ordered
  /// membership_update it submits to the GM.
  struct ReplacementTicket {
    ElementInfo retired;
    ElementInfo admitted;
  };

  /// Spawns a FRESH-IDENTITY replacement in `slot`: new SMIOP / GM-client /
  /// self-client endpoints and fresh signing keys (the BFT slot address is
  /// reused so the replica catches up exactly like a crash replacement).
  /// The directory is swapped before return so key shares can be addressed
  /// to the fresh endpoint; the caller must then submit the ordered
  /// membership_update that admits the identity GM-side and rekeys.
  ReplacementTicket admit_replacement(DomainId domain, int rank);

  /// Crash-stops a Group Manager element.
  void crash_gm_element(int index);

  // --- driving ---

  /// Runs the simulation until the invocation completes or times out.
  Result<cdr::Value> invoke_sync(ItdosClient& client, const orb::ObjectRef& ref,
                                 const std::string& operation, cdr::Value arguments,
                                 std::int64_t timeout_ns = seconds(5));

  void settle(std::size_t max_events = 5'000'000) { sim_.run(max_events); }

 private:
  ElementInfo allocate_element(cdr::ByteOrder order);

  SystemOptions options_;
  net::Simulator sim_;
  net::Network net_;
  std::shared_ptr<NodeAllocator> allocator_;
  bft::SessionKeys keys_;
  std::shared_ptr<crypto::Keystore> keystore_;
  std::shared_ptr<SystemDirectory> directory_;
  Rng key_rng_;

  std::vector<std::unique_ptr<GmElement>> gm_elements_;
  std::map<DomainId, std::vector<std::unique_ptr<DomainElement>>> elements_;
  std::map<DomainId, DomainElement::ServantInstaller> installers_;
  std::vector<std::unique_ptr<ItdosClient>> clients_;
  std::uint64_t next_domain_ = 10;
};

}  // namespace itdos::core
