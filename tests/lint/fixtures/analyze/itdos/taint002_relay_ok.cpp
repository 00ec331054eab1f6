// TAINT-002 fixture: the relay drop as Replica::handle_request does it. A
// copy of a request already proposed is dropped before any MAC work, with
// read-only lookups (find, contains) and telemetry only; client state
// changes after the verify.
#include <cstdint>

namespace fixture {

void Replica::handle_request(const bft::Envelope& env, const BufView& wire) {
  const RequestMsg request = decode_request(env.body);
  const auto known = clients_.find(request.client);
  if (known != clients_.end() && known->second.proposed.contains(request.timestamp)) {
    metrics_.requests_received->inc();   // ok: telemetry member
    return;
  }
  if (!verify_envelope(env).is_ok()) {
    return;
  }
  clients_[request.client].proposed.insert(request.timestamp);  // ok: after
}

}  // namespace fixture
