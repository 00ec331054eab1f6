// A test process that speaks as a given node with that node's pairwise
// keys: a compromised replica or client, or a network adversary replaying
// a node's traffic. It sends whatever the test crafts and keeps every
// message addressed to it whose authenticator verifies.
#pragma once

#include <vector>

#include "bft/harness.hpp"
#include "bft/messages.hpp"
#include "client_auth.hpp"
#include "wire.hpp"
#include "net/process.hpp"

namespace itdos::bft {

class Impostor : public net::Process {
 public:
  struct Received {
    MsgType type;
    NodeId sender;
    Bytes body;
  };

  Impostor(Cluster& cluster, NodeId id)
      : net::Process(cluster.network(), id), keys_(cluster.keys()), config_(cluster.config()) {}

  /// Sends `body` to `to` labelled `sent_as`, carrying the authenticators a
  /// `mac_as` message with that body would carry: a REQUEST to a replica is
  /// tagged for every replica, as a client tags it (any of them may check
  /// it in a batch); anything else carries one tag, for `to`.
  void send(NodeId to, MsgType sent_as, MsgType mac_as, Bytes body) {
    Envelope env;
    env.type = sent_as;
    env.sender = id();
    if (mac_as == MsgType::kRequest && config_.is_replica(to)) {
      env.auth = client_tags(keys_, config_, id(), body);
    } else {
      Bytes entry;
      add_entry(entry, to, tag(mac_as, id(), to, body));
      env.auth = AuthVector(BufView(std::move(entry)));
    }
    env.body = BufView(std::move(body));
    send_to(to, wire_of(env));
  }

  /// Sends `body` as an honest `type` message.
  void send(NodeId to, MsgType type, Bytes body) { send(to, type, type, std::move(body)); }

  const std::vector<Received>& received() const { return received_; }

 protected:
  void on_packet(const net::Packet& packet) override {
    Result<Envelope> decoded = Envelope::decode(packet.payload);
    if (!decoded.is_ok()) return;
    const Envelope& env = decoded.value();
    const std::optional<crypto::MacTag> received = env.tag_for(id());
    if (!received || tag(env.type, env.sender, id(), env.body) != *received) return;
    const ByteView body = env.body;
    received_.push_back(Received{env.type, env.sender, Bytes(body.begin(), body.end())});
  }

 private:
  /// The (a, b) tag a `type` message with `body` carries.
  crypto::MacTag tag(MsgType type, NodeId a, NodeId b, ByteView body) const {
    if (type == MsgType::kRequest) {
      const Digest payload = payload_digest(body);
      return keys_.tag(a, b, request_mac_input(body, payload));
    }
    return keys_.tag(a, b, mac_input(type, body));
  }

  const SessionKeys& keys_;
  BftConfig config_;
  std::vector<Received> received_;
};

}  // namespace itdos::bft
