#include "itdos/system.hpp"

#include "itdos/proxy.hpp"

namespace itdos::core {

// ---------------------------------------------------------------------------
// ItdosClient
// ---------------------------------------------------------------------------

class ItdosClient::Endpoint : public net::Process {
 public:
  Endpoint(net::Network& net, NodeId id, SmiopParty& party)
      : Process(net, id), party_(party) {}

 protected:
  void on_packet(const net::Packet& packet) override {
    party_.handle_smiop_packet(packet.payload);
  }

 private:
  SmiopParty& party_;
};

ItdosClient::ItdosClient(net::Network& net,
                         std::shared_ptr<const SystemDirectory> directory,
                         const bft::SessionKeys& keys,
                         std::shared_ptr<const crypto::Keystore> keystore,
                         std::shared_ptr<NodeAllocator> allocator,
                         ClientOptions options) {
  PartyConfig config;
  config.smiop_node = allocator->next();
  config.gm_client_node = allocator->next();
  config.my_domain = kSingletonDomain;
  config.byte_order = options.byte_order;
  config.auto_report = options.auto_report;
  config.policy_override = options.policy_override;
  smiop_node_ = config.smiop_node;

  party_ = std::make_unique<SmiopParty>(net, std::move(directory), config, keys,
                                        std::move(keystore), std::move(allocator));
  orb_ = std::make_unique<orb::Orb>(kSingletonDomain, party_->make_protocol(),
                                    net.sim().telemetry().metrics(), smiop_node_);
  endpoint_ = std::make_unique<Endpoint>(net, smiop_node_, *party_);
}

ItdosClient::~ItdosClient() = default;

// ---------------------------------------------------------------------------
// ItdosSystem
// ---------------------------------------------------------------------------

ItdosSystem::ItdosSystem(SystemOptions options)
    : options_(options),
      sim_(options.seed),
      net_(sim_, options.net_config),
      allocator_(std::make_shared<NodeAllocator>(1)),
      keys_(Rng(options.seed ^ 0x17d05ULL).next_bytes(32)),
      keystore_(std::make_shared<crypto::Keystore>()),
      key_rng_(options.seed ^ 0x51671ULL) {
  // Build the Group Manager domain.
  DomainInfo gm;
  gm.id = DomainId(1);
  gm.f = options.gm_f;
  gm.group = McastGroupId(1);
  gm.vote_policy = VotePolicy::exact();
  for (int i = 0; i < 3 * options.gm_f + 1; ++i) {
    gm.elements.push_back(allocate_element(cdr::ByteOrder::kLittleEndian));
  }
  directory_ = std::make_shared<SystemDirectory>(gm, options.timing);
  // The recovery authority (src/recovery/): the one identity whose
  // membership_update commands the GM accepts. Fixed here, before any
  // ordered command executes, so every GM replica validates against the
  // same value deterministically.
  directory_->set_recovery_authority(allocator_->next());

  Rng dprf_rng(options.seed ^ 0xd96fULL);
  auto dprf_keys = crypto::dprf_deal(directory_->dprf_params(), dprf_rng);
  for (int i = 0; i < 3 * options.gm_f + 1; ++i) {
    const ElementInfo& info = directory_->gm().elements[i];
    gm_elements_.push_back(std::make_unique<GmElement>(
        net_, directory_, i, keys_, keystore_->issue(info.bft_node, key_rng_),
        keystore_, std::move(dprf_keys[i])));
  }
}

ItdosSystem::~ItdosSystem() = default;

ElementInfo ItdosSystem::allocate_element(cdr::ByteOrder order) {
  ElementInfo info;
  info.bft_node = allocator_->next();
  info.smiop_node = allocator_->next();
  info.gm_client_node = allocator_->next();
  info.self_client_node = allocator_->next();
  info.byte_order = order;
  return info;
}

DomainId ItdosSystem::add_domain(int f, VotePolicy policy,
                                 const DomainElement::ServantInstaller& install) {
  DomainInfo info;
  info.id = DomainId(next_domain_++);
  info.f = f;
  info.group = McastGroupId(info.id.value);
  info.vote_policy = policy;
  for (int rank = 0; rank < 3 * f + 1; ++rank) {
    const cdr::ByteOrder order =
        (options_.heterogeneous && rank % 2 == 1) ? cdr::ByteOrder::kBigEndian
                                                  : cdr::ByteOrder::kLittleEndian;
    info.elements.push_back(allocate_element(order));
  }
  directory_->add_domain(info);
  installers_[info.id] = install;

  auto& slots = elements_[info.id];
  for (int rank = 0; rank < 3 * f + 1; ++rank) {
    const ElementInfo& element = info.elements[rank];
    slots.push_back(std::make_unique<DomainElement>(
        net_, directory_, info.id, rank, keys_,
        keystore_->issue(element.bft_node, key_rng_),
        keystore_->issue(element.smiop_node, key_rng_), keystore_, allocator_,
        install));
  }
  return info.id;
}

ItdosClient& ItdosSystem::add_client(ClientOptions options) {
  clients_.push_back(std::make_unique<ItdosClient>(net_, directory_, keys_,
                                                   keystore_, allocator_, options));
  return *clients_.back();
}

void ItdosSystem::protect_with_firewall(DomainId domain) {
  const DomainInfo* info = directory_->find_domain(domain);
  if (info == nullptr) return;
  // The installed filters hold the proxy's options and counters, so the
  // proxy object itself need not outlive this call.
  FirewallProxy proxy(sim_.telemetry().metrics(), domain);
  for (const ElementInfo& element : info->elements) {
    proxy.protect(net_, element.bft_node);
    proxy.protect(net_, element.smiop_node);
  }
}

DomainElement& ItdosSystem::element(DomainId domain, int rank) {
  return *elements_.at(domain).at(rank);
}

bool ItdosSystem::element_up(DomainId domain, int rank) const {
  return elements_.at(domain).at(rank) != nullptr;
}

int ItdosSystem::domain_n(DomainId domain) const {
  return static_cast<int>(elements_.at(domain).size());
}

orb::ObjectRef ItdosSystem::object_ref(DomainId domain, ObjectId key,
                                       std::string interface_name) const {
  orb::ObjectRef ref;
  ref.domain = domain;
  ref.key = key;
  ref.interface_name = std::move(interface_name);
  return ref;
}

orb::ObjectRef ItdosSystem::routed_ref(ObjectId key,
                                       std::string interface_name) const {
  return shard::ShardRouter::routed_ref(key, std::move(interface_name));
}

void ItdosSystem::crash_element(DomainId domain, int rank) {
  elements_.at(domain).at(rank).reset();
}

DomainElement& ItdosSystem::replace_element(DomainId domain, int rank) {
  auto& slot = elements_.at(domain).at(rank);
  slot.reset();  // ensure the predecessor is gone
  // The SMIOP identity survives, but the queue-management client gets a
  // fresh endpoint: a new bft::Client restarts its timestamps at 1, and the
  // replicas would answer a reused timestamp (the predecessor's acks, or an
  // earlier incarnation's sync point) from their reply cache instead of
  // ordering the new sync point.
  ElementInfo element = directory_->find_domain(domain)->elements.at(rank);
  element.self_client_node = allocator_->next();
  // elements_.at() above already validated domain and rank.
  (void)directory_->replace_element(domain, rank, element);
  slot = std::make_unique<DomainElement>(
      net_, directory_, domain, rank, keys_,
      keystore_->issue(element.bft_node, key_rng_),
      keystore_->issue(element.smiop_node, key_rng_), keystore_, allocator_,
      installers_.at(domain));
  slot->begin_replacement();
  return *slot;
}

ItdosSystem::ReplacementTicket ItdosSystem::admit_replacement(DomainId domain,
                                                              int rank) {
  auto& slot = elements_.at(domain).at(rank);
  slot.reset();  // ensure the predecessor is gone
  const DomainInfo* info = directory_->find_domain(domain);
  const ElementInfo retired = info->elements.at(rank);

  ElementInfo fresh;
  fresh.bft_node = retired.bft_node;  // BFT slot address survives the swap
  fresh.smiop_node = allocator_->next();
  fresh.gm_client_node = allocator_->next();
  fresh.self_client_node = allocator_->next();
  fresh.byte_order = retired.byte_order;
  // elements_.at() above already validated domain and rank; the swap cannot
  // fail on the same pair.
  (void)directory_->replace_element(domain, rank, fresh);

  slot = std::make_unique<DomainElement>(
      net_, directory_, domain, rank, keys_,
      keystore_->issue(fresh.bft_node, key_rng_),
      keystore_->issue(fresh.smiop_node, key_rng_), keystore_, allocator_,
      installers_.at(domain));
  slot->begin_replacement();
  return ReplacementTicket{retired, fresh};
}

void ItdosSystem::crash_gm_element(int index) { gm_elements_.at(index).reset(); }

Result<cdr::Value> ItdosSystem::invoke_sync(ItdosClient& client,
                                            const orb::ObjectRef& ref,
                                            const std::string& operation,
                                            cdr::Value arguments,
                                            std::int64_t timeout_ns) {
  // The slot outlives this frame: after a timeout return the completion can
  // still fire, and must not write into a dead stack frame.
  auto outcome = std::make_shared<std::optional<Result<cdr::Value>>>();
  client.orb().invoke(ref, operation, std::move(arguments),
                      [outcome](Result<cdr::Value> r) { *outcome = std::move(r); });
  const SimTime deadline = sim_.now() + timeout_ns;
  while (!outcome->has_value() && sim_.now() < deadline) {
    if (!sim_.step()) break;
  }
  if (!outcome->has_value()) {
    return error(Errc::kUnavailable, "ITDOS invocation did not complete in time");
  }
  return std::move(**outcome);
}

}  // namespace itdos::core
