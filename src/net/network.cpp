#include "net/network.hpp"

#include <algorithm>

namespace itdos::net {

namespace {
// kNetDrop `b` payload: where in the path the packet died.
enum DropReason : std::uint64_t {
  kDropInterceptor = 1,
  kDropLinkCut = 2,
  kDropLoss = 3,
  kDropNoHandler = 4,
  kDropFiltered = 5,
};
}  // namespace

Network::Network(Simulator& sim, NetConfig config) : sim_(sim), config_(config) {
  auto& reg = sim_.telemetry().metrics();
  metrics_.unicasts_sent = &reg.counter("net.unicasts_sent");
  metrics_.multicasts_sent = &reg.counter("net.multicasts_sent");
  metrics_.packets_delivered = &reg.counter("net.packets_delivered");
  metrics_.packets_dropped = &reg.counter("net.packets_dropped");
  metrics_.bytes_delivered = &reg.counter("net.bytes_delivered");
  metrics_.delivery_delay_ns = &reg.histogram("net.delivery_delay_ns");
}

void Network::attach(NodeId node, Handler handler) {
  handlers_[node] = std::move(handler);
}

void Network::detach(NodeId node) {
  handlers_.erase(node);
  interceptors_.erase(node);
  for (auto& [group, members] : groups_) members.erase(node);
}

void Network::join_group(McastGroupId group, NodeId node) {
  groups_[group].insert(node);
}

void Network::leave_group(McastGroupId group, NodeId node) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  it->second.erase(node);
  if (it->second.empty()) groups_.erase(it);
}

std::vector<NodeId> Network::group_members(McastGroupId group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) return {};
  return std::vector<NodeId>(it->second.begin(), it->second.end());
}

std::int64_t Network::sample_delay() {
  if (config_.max_delay_ns <= config_.min_delay_ns) return config_.min_delay_ns;
  return sim_.rng().next_in(config_.min_delay_ns, config_.max_delay_ns);
}

bool Network::link_up(NodeId a, NodeId b) const {
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  return !cut_links_.contains(key);
}

void Network::set_link(NodeId a, NodeId b, bool up) {
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  if (up) {
    cut_links_.erase(key);
  } else {
    cut_links_.insert(key);
  }
}

void Network::partition(const std::set<NodeId>& side_a, const std::set<NodeId>& side_b) {
  for (NodeId a : side_a) {
    for (NodeId b : side_b) set_link(a, b, false);
  }
}

void Network::heal_all_links() { cut_links_.clear(); }

void Network::set_interceptor(NodeId node, Interceptor interceptor) {
  if (interceptor) {
    interceptors_[node] = std::move(interceptor);
  } else {
    interceptors_.erase(node);
  }
}

void Network::set_inbound_filter(NodeId node, InboundFilter filter) {
  if (filter) {
    inbound_filters_[node] = std::move(filter);
  } else {
    inbound_filters_.erase(node);
  }
}

void Network::deliver_copy(Packet packet, bool schedule) {
  auto& hub = sim_.telemetry();
  // Outbound interceptor: a compromised host's network stack.
  if (const auto it = interceptors_.find(packet.from); it != interceptors_.end()) {
    std::optional<BufView> mutated = it->second(packet);
    if (!mutated) {
      metrics_.packets_dropped->inc();
      hub.trace(telemetry::TraceKind::kNetDrop, packet.from, 0, packet.to.value,
                kDropInterceptor);
      return;
    }
    packet.payload = std::move(*mutated);
  }
  if (!link_up(packet.from, packet.to)) {
    metrics_.packets_dropped->inc();
    hub.trace(telemetry::TraceKind::kNetDrop, packet.from, 0, packet.to.value, kDropLinkCut);
    return;
  }
  if (sim_.rng().chance(config_.drop_probability)) {
    metrics_.packets_dropped->inc();
    hub.trace(telemetry::TraceKind::kNetDrop, packet.from, 0, packet.to.value, kDropLoss);
    return;
  }
  const int copies = sim_.rng().chance(config_.duplicate_probability) ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    const std::int64_t delay = sample_delay();
    if (!schedule) continue;  // the delay is drawn all the same
    std::uint32_t slot;
    if (free_in_flight_.empty()) {
      slot = static_cast<std::uint32_t>(in_flight_.size());
      in_flight_.emplace_back();
    } else {
      slot = free_in_flight_.back();
      free_in_flight_.pop_back();
    }
    InFlight& flight = in_flight_[slot];
    flight.delay = delay;
    if (c + 1 < copies) {
      flight.packet = packet;
    } else {
      flight.packet = std::move(packet);
    }
    sim_.schedule_after(delay, [this, slot] { deliver(slot); });
  }
}

void Network::deliver(std::uint32_t slot) {
  // The packet leaves its slot before the handler runs: a handler that
  // sends may take the freed slot or grow the table.
  const Packet packet = std::move(in_flight_[slot].packet);
  const std::int64_t delay = in_flight_[slot].delay;
  free_in_flight_.push_back(slot);
  const auto handler = handlers_.find(packet.to);
  if (handler == handlers_.end()) {
    metrics_.packets_dropped->inc();
    sim_.telemetry().trace(telemetry::TraceKind::kNetDrop, packet.from, 0, packet.to.value,
                           kDropNoHandler);
    return;
  }
  if (const auto filter = inbound_filters_.find(packet.to);
      filter != inbound_filters_.end() && !filter->second(packet)) {
    metrics_.packets_dropped->inc();
    sim_.telemetry().trace(telemetry::TraceKind::kNetDrop, packet.from, 0, packet.to.value,
                           kDropFiltered);
    return;
  }
  metrics_.packets_delivered->inc();
  metrics_.bytes_delivered->inc(packet.payload.size());
  metrics_.delivery_delay_ns->record(delay);
  handler->second(packet);
}

void Network::send(NodeId from, NodeId to, BufView payload) {
  metrics_.unicasts_sent->inc();
  deliver_copy(Packet{from, to, std::nullopt, std::move(payload)}, /*schedule=*/true);
}

void Network::multicast(NodeId from, McastGroupId group, BufView payload) {
  metrics_.multicasts_sent->inc();
  const auto it = groups_.find(group);
  if (it == groups_.end()) return;
  for (NodeId member : it->second) {
    // Per-member Packet shares the sealed chunk: refcount bump, no memcpy.
    deliver_copy(Packet{from, member, group, payload}, /*schedule=*/member != from);
  }
}

}  // namespace itdos::net
