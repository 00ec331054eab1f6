#include "bft/harness.hpp"

#include <charconv>

#include "common/rng.hpp"

namespace itdos::bft {

Cluster::Cluster(ClusterOptions options, const AppFactory& app_factory)
    : options_(options),
      sim_(options.seed),
      net_(sim_, options.net_config),
      keys_(Rng(options.seed ^ 0x5eed).next_bytes(32)),
      keystore_(std::make_shared<crypto::Keystore>()),
      app_factory_(app_factory) {
  config_.f = options.f;
  config_.group = McastGroupId(1);
  config_.checkpoint_interval = options.checkpoint_interval;
  config_.client_retry_ns = options.client_retry_ns;
  config_.view_change_timeout_ns = options.view_change_timeout_ns;
  config_.batch = options.batch;
  config_.pipeline_depth = options.pipeline_depth;
  for (int i = 0; i < 3 * options.f + 1; ++i) {
    config_.replicas.push_back(NodeId(static_cast<std::uint64_t>(i + 1)));
  }
  Rng key_rng(options.seed ^ 0x6e75eedULL);
  for (int rank = 0; rank < config_.n(); ++rank) {
    const NodeId id = config_.replicas[rank];
    replicas_.push_back(std::make_unique<Replica>(
        net_, id, config_, keys_, keystore_->issue(id, key_rng), keystore_,
        app_factory_(rank)));
  }
}

void Cluster::crash_replica(int rank) {
  // Destroying the Process detaches it; keep the slot for restart.
  replicas_.at(rank).reset();
}

void Cluster::restart_replica(int rank) {
  if (replicas_.at(rank)) return;
  const NodeId id = config_.replicas.at(rank);
  Rng key_rng(options_.seed ^ 0x0e5edULL ^ id.value);
  replicas_.at(rank) = std::make_unique<Replica>(
      net_, id, config_, keys_, keystore_->issue(id, key_rng), keystore_,
      app_factory_(rank));
}

Client& Cluster::add_client() {
  clients_.push_back(
      std::make_unique<Client>(net_, NodeId(next_client_id_++), config_, keys_));
  return *clients_.back();
}

Result<Bytes> Cluster::invoke_sync(Client& client, BufView payload,
                                   std::int64_t timeout_ns) {
  // The slot outlives this frame: after a timeout return the completion can
  // still fire, and must not write into a dead stack frame.
  auto outcome = std::make_shared<std::optional<Result<Bytes>>>();
  client.invoke(std::move(payload),
                [outcome](Result<Bytes> result) { *outcome = std::move(result); });
  const SimTime deadline = sim_.now() + timeout_ns;
  while (!outcome->has_value() && sim_.now() < deadline) {
    if (!sim_.step()) break;
  }
  if (!outcome->has_value()) {
    return error(Errc::kUnavailable, "invocation did not complete in time");
  }
  return std::move(**outcome);
}

Bytes execute_with_digest(StateMachine& app, const BufView& request, NodeId client,
                          SeqNum seq) {
  return app.execute(request, crypto::sha256(request), client, seq);
}

// ---------------------------------------------------------------------------
// Sample state machines
// ---------------------------------------------------------------------------

Bytes LogStateMachine::execute(const BufView& request, const crypto::Digest&, NodeId, SeqNum) {
  entries_.push_back(request.clone_bytes());
  return to_bytes("OK:" + std::to_string(entries_.size()));
}

AppSnapshot LogStateMachine::snapshot() const {
  std::size_t bound = 4;  // the count, then each entry padded and counted
  for (const Bytes& e : entries_) bound += 3 + 4 + e.size();
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, bound);
  enc.write_uint32(static_cast<std::uint32_t>(entries_.size()));
  for (const Bytes& e : entries_) enc.write_bytes(e);
  return {enc.take(), {}};
}

Status LogStateMachine::restore(const AppSnapshot& snapshot) {
  cdr::Decoder dec(snapshot.state, cdr::ByteOrder::kLittleEndian);
  ITDOS_ASSIGN_OR_RETURN(std::uint32_t count, dec.read_uint32());
  if (count > dec.remaining()) {
    return error(Errc::kMalformedMessage, "hostile snapshot entry count");
  }
  std::vector<Bytes> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ITDOS_ASSIGN_OR_RETURN(Bytes e, dec.read_bytes());
    entries.push_back(std::move(e));
  }
  entries_ = std::move(entries);
  return Status::ok();
}

Bytes CounterStateMachine::execute(const BufView& request, const crypto::Digest&, NodeId,
                                   SeqNum) {
  const std::string cmd = to_string(request);
  if (cmd.rfind("add:", 0) == 0) {
    std::int64_t delta = 0;
    const char* begin = cmd.data() + 4;
    const char* end = cmd.data() + cmd.size();
    if (std::from_chars(begin, end, delta).ec != std::errc{}) {
      return to_bytes("ERR:bad-number");
    }
    value_ += delta;
    return to_bytes("VAL:" + std::to_string(value_));
  }
  if (cmd == "get") {
    return to_bytes("VAL:" + std::to_string(value_));
  }
  return to_bytes("ERR:unknown-command");
}

AppSnapshot CounterStateMachine::snapshot() const {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian);
  enc.write_int64(value_);
  return {enc.take(), {}};
}

Status CounterStateMachine::restore(const AppSnapshot& snapshot) {
  cdr::Decoder dec(snapshot.state, cdr::ByteOrder::kLittleEndian);
  ITDOS_ASSIGN_OR_RETURN(value_, dec.read_int64());
  return Status::ok();
}

}  // namespace itdos::bft
