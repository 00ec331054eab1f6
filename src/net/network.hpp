// Simulated network: unicast datagrams and IP-multicast groups over the
// discrete-event simulator (the paper's transport substrate, Figure 2's
// bottom layer).
//
// Fault model knobs cover everything the paper's assumptions mention:
// variable delay, loss, duplication, link cuts / partitions, and per-node
// Byzantine interceptors that can drop, mutate, delay or fabricate traffic.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "net/sim.hpp"

namespace itdos::net {

/// A datagram in flight. `group` is set for multicast deliveries.
/// The payload is a refcounted view: every in-flight copy of a multicast
/// (and every duplicated/delayed replay) shares one sealed chunk.
struct Packet {
  NodeId from;
  NodeId to;                               // receiver (per-copy for multicast)
  std::optional<McastGroupId> group;       // multicast group, if any
  BufView payload;
};

/// Latency / loss / duplication configuration.
struct NetConfig {
  std::int64_t min_delay_ns = micros(50);
  std::int64_t max_delay_ns = micros(200);
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
};

class Network {
 public:
  using Handler = std::function<void(const Packet&)>;

  /// An interceptor sees every packet a node emits; it returns the (possibly
  /// mutated) payload to deliver, or nullopt to drop. Used to model
  /// compromised hosts whose traffic an adversary controls. Mutation is
  /// copy-on-write: return the packet's own view to pass through untouched,
  /// or clone_bytes(), mutate, and return the clone.
  using Interceptor = std::function<std::optional<BufView>(const Packet&)>;

  Network(Simulator& sim, NetConfig config);

  /// Registers a node's receive handler. Re-attaching replaces the handler.
  void attach(NodeId node, Handler handler);

  /// Removes the node; in-flight packets to it are dropped on delivery.
  void detach(NodeId node);

  bool attached(NodeId node) const { return handlers_.contains(node); }

  void join_group(McastGroupId group, NodeId node);
  void leave_group(McastGroupId group, NodeId node);
  std::vector<NodeId> group_members(McastGroupId group) const;

  /// Sends a unicast datagram (unreliable, unordered).
  void send(NodeId from, NodeId to, BufView payload);

  /// Sends one datagram per current group member other than the sender.
  /// All members share the same sealed payload chunk. A sender that is a
  /// member still has its own copy run through the outbound path (its
  /// interceptor, loss, duplication and delay draws, and their drop
  /// traces), so the random draws of every later packet are those of IP
  /// multicast loopback; the copy is then discarded instead of delivered,
  /// since no group member consumes its own multicast.
  void multicast(NodeId from, McastGroupId group, BufView payload);

  /// Cuts / restores the bidirectional link between two nodes.
  void set_link(NodeId a, NodeId b, bool up);

  /// Partitions the node set into two sides; all cross-side links are cut.
  void partition(const std::set<NodeId>& side_a, const std::set<NodeId>& side_b);

  /// Restores every cut link.
  void heal_all_links();

  /// Installs (or clears, with nullptr) an outbound interceptor for a node.
  void set_interceptor(NodeId node, Interceptor interceptor);

  /// An inbound filter guards a node's enclave link (the firewall-proxy
  /// seam, Figure 1): it sees every packet destined for the node and returns
  /// false to drop it. Runs at delivery time, after transit.
  using InboundFilter = std::function<bool(const Packet&)>;
  void set_inbound_filter(NodeId node, InboundFilter filter);

  Simulator& sim() { return sim_; }

 private:
  /// A scheduled delivery: the packet and the delay it drew. A delivery
  /// event's closure holds only its index into in_flight_, so it fits
  /// std::function's inline buffer and scheduling allocates nothing.
  struct InFlight {
    Packet packet;
    std::int64_t delay = 0;
  };

  /// Runs one copy through the outbound path and, if it survives and
  /// `schedule` is set, schedules its delivery.
  void deliver_copy(Packet packet, bool schedule);
  /// The delivery event of in_flight_[slot]: frees the slot, then hands
  /// the packet to its receiver's filter and handler.
  void deliver(std::uint32_t slot);
  bool link_up(NodeId a, NodeId b) const;
  std::int64_t sample_delay();

  Simulator& sim_;
  NetConfig config_;
  // The `net.*` counters, resolved once so the hot path is one add.
  struct {
    telemetry::Counter* unicasts_sent;
    telemetry::Counter* multicasts_sent;    // one per multicast() call
    telemetry::Counter* packets_delivered;  // per receiving endpoint
    telemetry::Counter* packets_dropped;    // loss, cut links, interceptors, filters
    telemetry::Counter* bytes_delivered;
    telemetry::Histogram* delivery_delay_ns;
  } metrics_;
  // Ordered containers throughout (DET-002): hash order varies across
  // libstdc++ versions, and any iteration here feeds delivery order.
  std::map<NodeId, Handler> handlers_;
  std::map<McastGroupId, std::set<NodeId>> groups_;
  std::set<std::pair<NodeId, NodeId>> cut_links_;  // normalized (min, max)
  std::map<NodeId, Interceptor> interceptors_;
  std::map<NodeId, InboundFilter> inbound_filters_;
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> free_in_flight_;  // indices of unused in_flight_ entries
};

}  // namespace itdos::net
