#include "itdos/system_directory.hpp"

#include <algorithm>

namespace itdos::core {

bft::BftConfig DomainInfo::make_bft_config(const ProtocolTiming& timing) const {
  bft::BftConfig config;
  config.f = f;
  config.group = group;
  config.checkpoint_interval = timing.checkpoint_interval;
  config.client_retry_ns = timing.client_retry_ns;
  config.view_change_timeout_ns = timing.view_change_timeout_ns;
  config.batch.max_entries = timing.batch_max_entries;
  config.batch.max_bytes = timing.batch_max_bytes;
  config.batch.max_hold_ns = timing.batch_max_hold_ns;
  config.pipeline_depth = timing.pipeline_depth;
  for (const ElementInfo& element : elements) {
    config.replicas.push_back(element.bft_node);
  }
  return config;
}

int DomainInfo::rank_of_smiop(NodeId smiop_node) const {
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (elements[i].smiop_node == smiop_node) return static_cast<int>(i);
  }
  return -1;
}

std::vector<NodeId> DomainInfo::smiop_nodes() const {
  std::vector<NodeId> out;
  out.reserve(elements.size());
  for (const ElementInfo& element : elements) out.push_back(element.smiop_node);
  return out;
}

bool DomainInfo::is_self_client(NodeId element, NodeId client) const {
  const auto matches = [&](const ElementInfo& info) {
    return info.smiop_node == element && info.self_client_node == client;
  };
  return std::any_of(elements.begin(), elements.end(), matches) ||
         std::any_of(retired.begin(), retired.end(), matches);
}

Status SystemDirectory::replace_element(DomainId domain, int rank,
                                        const ElementInfo& fresh) {
  const auto it = domains_.find(domain);
  if (it == domains_.end()) {
    return error(Errc::kInvalidArgument, "replace_element: unknown domain");
  }
  if (rank < 0 || rank >= it->second.n()) {
    return error(Errc::kInvalidArgument, "replace_element: rank out of range");
  }
  ElementInfo& slot = it->second.elements[static_cast<std::size_t>(rank)];
  it->second.retired.push_back(slot);
  slot = fresh;
  return Status::ok();
}

}  // namespace itdos::core
