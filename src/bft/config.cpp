#include "bft/config.hpp"

#include <algorithm>
#include <set>

namespace itdos::bft {

Status BftConfig::validate() const {
  if (f < 1) return error(Errc::kInvalidArgument, "f must be >= 1");
  if (n() != 3 * f + 1) {
    return error(Errc::kInvalidArgument, "replica count must be 3f+1");
  }
  const std::set<NodeId> distinct(replicas.begin(), replicas.end());
  if (distinct.size() != replicas.size()) {
    return error(Errc::kInvalidArgument, "duplicate replica ids");
  }
  if (checkpoint_interval < 1) {
    return error(Errc::kInvalidArgument, "checkpoint interval must be >= 1");
  }
  if (batch.max_entries < 1 || batch.max_bytes < 1) {
    return error(Errc::kInvalidArgument, "batch caps must be >= 1");
  }
  if (pipeline_depth < 1 || pipeline_depth > kMaxPipelineDepth) {
    return error(Errc::kInvalidArgument, "pipeline depth out of range");
  }
  return Status::ok();
}

bool BftConfig::is_replica(NodeId node) const { return rank_of(node) >= 0; }

int BftConfig::rank_of(NodeId node) const {
  const auto it = std::find(replicas.begin(), replicas.end(), node);
  if (it == replicas.end()) return -1;
  return static_cast<int>(it - replicas.begin());
}

Bytes SessionKeys::key_for(NodeId a, NodeId b) const {
  if (b < a) std::swap(a, b);
  Bytes info;
  for (int i = 0; i < 8; ++i) info.push_back(static_cast<std::uint8_t>(a.value >> (i * 8)));
  for (int i = 0; i < 8; ++i) info.push_back(static_cast<std::uint8_t>(b.value >> (i * 8)));
  return crypto::derive_key(master_, "bft.pairwise", info);
}

crypto::CmacKey SessionKeys::derive_mac_key(NodeId a, NodeId b) const {
  return crypto::CmacKey(crypto::derive_key(key_for(a, b), "bft.mac", {}));
}

const crypto::CmacKey& SessionKeys::mac_key(NodeId a, NodeId b) const {
  if (b < a) std::swap(a, b);
  auto it = pair_keys_.find({a, b});
  if (it == pair_keys_.end()) it = pair_keys_.emplace(std::pair(a, b), derive_mac_key(a, b)).first;
  return it->second;
}

crypto::MacTag SessionKeys::tag(NodeId a, NodeId b, ByteView data) const {
  return mac_key(a, b).tag(data);
}

crypto::MacTag SessionKeys::tag(NodeId a, NodeId b, std::span<const ByteView> segments) const {
  return mac_key(a, b).tag(segments);
}

bool SessionKeys::verify(NodeId a, NodeId b, std::span<const ByteView> segments,
                         const crypto::MacTag& tag) const {
  if (b < a) std::swap(a, b);
  const auto it = pair_keys_.find({a, b});
  if (it != pair_keys_.end()) return it->second.verify(segments, tag);
  crypto::CmacKey key = derive_mac_key(a, b);
  if (!key.verify(segments, tag)) return false;
  pair_keys_.emplace(std::pair(a, b), key);
  return true;
}

}  // namespace itdos::bft
