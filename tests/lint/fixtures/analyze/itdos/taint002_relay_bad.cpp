// TAINT-002 fixture: a relay drop ahead of the MAC check that writes client
// state. A map's operator[] inserts the (unverified) sender even when the
// entry is only read, and insert() records an unverified timestamp.
#include <cstdint>

namespace fixture {

void Replica::handle_request(const bft::Envelope& env, const BufView& wire) {
  const RequestMsg request = decode_request(env.body);
  if (clients_[request.client].proposed.contains(request.timestamp)) {  // BAD: operator[]
    return;
  }
  relayed_.insert(request.timestamp);     // BAD: container mutation
  if (!verify_envelope(env).is_ok()) {
    return;
  }
  clients_[request.client].proposed.insert(request.timestamp);
}

}  // namespace fixture
