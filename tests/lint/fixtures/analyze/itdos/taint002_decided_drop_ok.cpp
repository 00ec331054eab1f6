// TAINT-002 fixture: the decided-slot drop as Replica::on_packet does it. A
// vote for a slot that is already decided is dropped before its MAC is
// checked, after read-only lookups only (find_entry, find, contains) and
// telemetry; the log changes after the verify.
#include <cstdint>

namespace fixture {

void Replica::on_packet(const net::Packet& packet) {
  const Envelope env = decode_envelope(packet.payload);
  const PhaseSlot slot = peek_phase_slot(env.body);
  const LogEntry* entry = find_entry(slot.seq);
  if (entry != nullptr && entry->committed) {
    metrics_.stale_drops->inc();           // ok: telemetry member
    return;
  }
  const auto known = clients_.find(env.sender);
  if (known != clients_.end() && known->second.executed.contains(slot.seq)) {
    metrics_.stale_drops->inc();
    return;
  }
  if (!verify_envelope(env).is_ok()) {
    return;
  }
  entry_at(slot.seq).committed = true;     // ok: after the verify
}

}  // namespace fixture
