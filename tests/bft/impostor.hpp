// A test process that speaks as a given node with that node's pairwise
// keys: a compromised replica or client, or a network adversary replaying
// a node's traffic. It sends whatever the test crafts and keeps every
// message addressed to it whose authenticator verifies.
#pragma once

#include <vector>

#include "bft/harness.hpp"
#include "bft/messages.hpp"
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
      : net::Process(cluster.network(), id), keys_(cluster.keys()) {}

  /// Sends `body` to `to` labelled `sent_as`, carrying the authenticator a
  /// `mac_as` message with that body would carry.
  void send(NodeId to, MsgType sent_as, MsgType mac_as, Bytes body) {
    Envelope env;
    env.type = sent_as;
    env.sender = id();
    env.auth.emplace_back(to, keys_.tag(id(), to, mac_input(mac_as, body)));
    env.body = BufView(std::move(body));
    send_to(to, env.encode_into(arena_));
  }

  /// Sends `body` as an honest `type` message.
  void send(NodeId to, MsgType type, Bytes body) { send(to, type, type, std::move(body)); }

  const std::vector<Received>& received() const { return received_; }

 protected:
  void on_packet(const net::Packet& packet) override {
    Result<Envelope> decoded = Envelope::decode(packet.payload);
    if (!decoded.is_ok()) return;
    const Envelope& env = decoded.value();
    const std::optional<crypto::MacTag> tag = env.tag_for(id());
    if (!tag || !keys_.verify(env.sender, id(), mac_input(env.type, env.body), *tag)) {
      return;
    }
    const ByteView body = env.body;
    received_.push_back(Received{env.type, env.sender, Bytes(body.begin(), body.end())});
  }

 private:
  const SessionKeys& keys_;
  Arena arena_;
  std::vector<Received> received_;
};

}  // namespace itdos::bft
