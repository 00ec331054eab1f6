// Event timing and trace folding (see bench.hpp).
#include "bench.hpp"

#include "bft/messages.hpp"

namespace itdos::perfbench {

const char* role_name(int role) {
  switch (role) {
    case kClientInvoke: return "client.invoke";
    case kClientSmiop: return "client.smiop";
    case kClientBft: return "client.bft";
    case kElementBft: return "element.bft";
    case kElementSmiop: return "element.smiop";
    case kElementClient: return "element.client";
    case kElementOrb: return "element.orb";
    case kGm: return "gm";
    case kLoadArrival: return "load.arrival";
    case kTimer: return "timer";
    case kOtherNode: return "other";
  }
  return "?";
}

std::string kind_name(int kind) {
  if (kind >= kSmiopKindBase) {
    switch (kind - kSmiopKindBase) {
      case 1: return "smiop.direct_reply";
      case 2: return "smiop.key_share";
      case 3: return "smiop.state_bundle";
    }
    return "smiop.?";
  }
  if (kind == 0) return "-";
  return "bft." + std::string(bft::msg_type_name(static_cast<bft::MsgType>(kind)));
}

void Probe::watch_nodes(net::Network& net, std::uint64_t last) {
  if (!traced_) return;
  for (std::uint64_t id = 1; id <= last; ++id) {
    net.set_inbound_filter(NodeId(id), [this](const net::Packet& packet) {
      cur_.packet = true;
      cur_.node = packet.to.value;
      cur_.type = packet.payload.empty() ? 0 : packet.payload[0];
      cur_.bytes = packet.payload.size();
      return true;  // pass-through: observation only
    });
  }
}

void Probe::set_role(NodeId node, Role role, bool smiop_kinds) {
  roles_[node.value] = NodeRole{role, smiop_kinds};
}

void Probe::add_servant_ns(std::int64_t ns) {
  stats_.servant_ns += ns;
  if (cur_.packet) {
    const auto it = roles_.find(cur_.node);
    if (it != roles_.end() && it->second.role == kElementBft) stats_.servant_in_bft_ns += ns;
  }
}

bool Probe::step() {
  if (!traced_) return sim_.step();
  cur_ = Current{};
  const std::int64_t t0 = host_now_ns();
  const bool ran = sim_.step();
  const std::int64_t dt = host_now_ns() - t0;
  if (!ran) return false;
  stats_.step_ns += dt;
  ++stats_.steps;
  int role = kTimer;
  int kind = 0;
  if (cur_.packet) {
    const auto it = roles_.find(cur_.node);
    const NodeRole nr = it == roles_.end() ? NodeRole{} : it->second;
    role = nr.role;
    kind = nr.smiop ? kSmiopKindBase + (cur_.type & 0x0F) : (cur_.type & 0x0F);
  } else if (cur_.mark >= 0) {
    role = cur_.mark;
  }
  stats_.ns[role] += dt;
  ++stats_.events[role];
  stats_.kind_ns[role][kind] += dt;
  ++stats_.kind_events[role][kind];
  stats_.kind_bytes[role][kind] += cur_.bytes;
  return true;
}

void TraceFold::fold(const std::vector<telemetry::TraceEvent>& events) {
  using telemetry::TraceKind;
  for (const telemetry::TraceEvent& ev : events) {
    if (ev.kind == TraceKind::kBftNewView && server_replica_.contains(ev.node.value)) {
      ++new_views_;
      continue;
    }
    if (ev.trace == 0) continue;
    const bool from_client = client_of_node_.contains(ev.node.value);
    const bool from_replica = server_replica_.contains(ev.node.value);
    switch (ev.kind) {
      case TraceKind::kSmiopRequestSent:
        if (!from_client) break;
        request_traces_[{client_of_node_.at(ev.node.value), ev.trace & 0xFFFFFF}] = ev.trace;
        stages_[ev.trace].sent = ev.t.ns;
        break;
      case TraceKind::kBftPrePrepare: {
        if (!from_replica) break;
        Stages& s = stages_[ev.trace];
        if (s.pre_prepare < 0) s.pre_prepare = ev.t.ns;
        break;
      }
      case TraceKind::kBftCommit: {
        if (!from_replica) break;
        Stages& s = stages_[ev.trace];
        if (s.prepared < 0) s.prepared = ev.t.ns;
        break;
      }
      case TraceKind::kBftExecute: {
        if (!from_replica) break;
        // A fragmented request spans several slots: the order completes
        // when f+1 replicas executed the highest one.
        Stages& s = stages_[ev.trace];
        if (ev.a > s.exec_seq) {
          s.exec_seq = ev.a;
          s.exec_count = 0;
          s.executed = -1;
        }
        if (ev.a == s.exec_seq && ++s.exec_count == f_ + 1) s.executed = ev.t.ns;
        break;
      }
      case TraceKind::kQueueAppend: {
        // Queue indices are replicated, so fragments are told apart the
        // same way as ordered slots.
        Stages& s = stages_[ev.trace];
        if (ev.a + 1 > s.append_index) {
          s.append_index = ev.a + 1;
          s.append_count = 0;
          s.appended = -1;
        }
        if (ev.a + 1 == s.append_index && ++s.append_count == f_ + 1) s.appended = ev.t.ns;
        break;
      }
      case TraceKind::kVoteOpen:
        if (from_client) stages_[ev.trace].vote_open = ev.t.ns;
        break;
      case TraceKind::kVoteDecide:
        if (from_client) {
          Stages& s = stages_[ev.trace];
          s.decided = ev.t.ns;
          s.ballots = ev.b;
        }
        break;
      default:
        break;
    }
  }
}

}  // namespace itdos::perfbench
