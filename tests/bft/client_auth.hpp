// What a client sends with a request, for tests that hand-build REQUESTs or
// batch entries (a rogue primary's batch, a replayed envelope): the
// authenticators bft::Client computes, over the REQUEST type byte, the
// body's header and its payload's digest. The test holds every pairwise
// key, so it can speak for any client.
#pragma once

#include "batch/batch_msg.hpp"
#include "bft/config.hpp"
#include "bft/messages.hpp"
#include "wire.hpp"

namespace itdos::bft {

/// The authenticator vector `client` sends with REQUEST body `body`: one
/// tag per replica of `config`.
inline AuthVector client_tags(const SessionKeys& keys, const BftConfig& config, NodeId client,
                              ByteView body) {
  const Digest payload = payload_digest(body);
  Bytes entries;
  for (NodeId replica : config.replicas) {
    add_entry(entries, replica, keys.tag(client, replica, request_mac_input(body, payload)));
  }
  return AuthVector(BufView(std::move(entries)));
}

/// The encoded REQUEST (`client`, `ts`, `payload`).
inline Bytes encode_request(std::uint64_t client, std::uint64_t ts, const Bytes& payload = {}) {
  RequestMsg request;
  request.client = NodeId(client);
  request.timestamp = ts;
  request.payload = BufView(Bytes(payload));
  return body_of(request);
}

/// REQUEST `body` as a batch entry carrying its client's tags for every
/// replica, as a primary forwards it.
inline batch::BatchEntry client_entry(const SessionKeys& keys, const BftConfig& config,
                                      const Bytes& body) {
  const NodeId client = RequestMsg::decode(BufView(Bytes(body))).value().client;
  const AuthVector auth = client_tags(keys, config, client, body);
  return batch::BatchEntry{BufView(Bytes(body)), auth.wire()};
}

/// REQUEST `body` as a batch entry with no authenticators: what a primary
/// that made the request up can put in a batch.
inline batch::BatchEntry untagged_entry(const Bytes& body) {
  return batch::BatchEntry{BufView(Bytes(body)), BufView()};
}

}  // namespace itdos::bft
