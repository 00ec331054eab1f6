// TAINT-002 fixture: a decided-slot drop ahead of the MAC check that reads
// the log ring by subscript. The ring slot for a seq may hold an earlier
// lap's entry, and any subscript of protocol state before the verify
// counts as a write (the lookup that is safe there is find_entry).
#include <cstdint>

namespace fixture {

void Replica::on_packet(const net::Packet& packet) {
  const Envelope env = decode_envelope(packet.payload);
  const PhaseSlot slot = peek_phase_slot(env.body);
  const LogEntry& entry = log_[slot.seq % log_.size()];  // BAD: subscript
  if (entry.seq == slot.seq && entry.committed) {
    metrics_.stale_drops->inc();
    return;
  }
  if (!verify_envelope(env).is_ok()) {
    return;
  }
  entry_at(slot.seq).committed = true;
}

}  // namespace fixture
