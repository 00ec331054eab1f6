// Replayed layer costs: the public crypto, bft, cdr and voting functions run
// on the message sizes and values the workload actually produced, timed on
// the host clock outside the simulation.
#include <algorithm>

#include "bench.hpp"
#include "bft/config.hpp"
#include "cdr/giop.hpp"
#include "crypto/cipher.hpp"

namespace itdos::perfbench {

namespace {

volatile std::size_t g_sink = 0;  // keeps replayed results observable

/// Median per-call microseconds of `fn` over five batches of >= 200us each.
template <typename Fn>
double time_us(Fn&& fn) {
  g_sink = g_sink + fn();  // warm
  std::size_t per_batch = 1;
  while (true) {
    const std::int64_t t0 = host_now_ns();
    for (std::size_t i = 0; i < per_batch; ++i) g_sink = g_sink + fn();
    if (host_now_ns() - t0 >= 200'000 || per_batch >= (1u << 20)) break;
    per_batch *= 2;
  }
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    const std::int64_t t0 = host_now_ns();
    for (std::size_t i = 0; i < per_batch; ++i) g_sink = g_sink + fn();
    batches.push_back(static_cast<double>(host_now_ns() - t0) / 1e3 /
                      static_cast<double>(per_batch));
  }
  std::sort(batches.begin(), batches.end());
  return batches[2];
}

/// The ballot value a client votes on (status + result + exception detail).
cdr::Value ballot_value(const cdr::Value& result) {
  return cdr::Value::structure({cdr::Field("status", cdr::Value::octet(0)),
                                cdr::Field("result", result),
                                cdr::Field("exception", cdr::Value::string(""))});
}

}  // namespace

ReplayCosts replay_costs(const Inputs& inputs, const RepResult& traced_rep, std::uint64_t seed) {
  Rng rng(seed ^ 0x7e91a7ULL);
  const crypto::SymmetricKey key = crypto::SymmetricKey::from_bytes(rng.next_bytes(32));
  const bft::SessionKeys pairwise(rng.next_bytes(32));
  const RequestId rid(7);
  const ConnectionId conn(1);
  const KeyEpoch epoch(1);
  const crypto::Nonce nonce = crypto::make_nonce(1, rid.value);
  const Bytes request_aad = core::seal_aad(conn, rid, epoch, /*is_reply=*/false);
  const Bytes reply_aad = core::seal_aad(conn, rid, epoch, /*is_reply=*/true);

  ReplayCosts costs;
  double total = 0.0;
  for (const auto& [kind, count] : traced_rep.op_counts) total += static_cast<double>(count);
  for (const auto& [kind, count] : traced_rep.op_counts) {
    if (count == 0) continue;
    const double w = static_cast<double>(count) / total;
    const bool echo = kind == "echo";
    const auto it = std::find_if(inputs.measured.begin(), inputs.measured.end(),
                                 [echo](const Op& op) { return op.echo == echo; });
    const Op& op = *it;

    cdr::RequestMessage request;
    request.request_id = rid;
    request.object_key = ObjectId(1);
    request.operation = echo ? "echo" : "add";
    request.interface_name = kInterface;
    request.arguments = op_arguments(op);
    cdr::ReplyMessage reply;
    reply.request_id = rid;
    reply.result = expected_reply(op);
    const cdr::GiopMessage request_msg(request);
    const cdr::GiopMessage reply_msg(reply);
    const Bytes request_plain = cdr::encode_giop(request_msg, cdr::ByteOrder::kLittleEndian);
    const Bytes reply_plain = cdr::encode_giop(reply_msg, cdr::ByteOrder::kLittleEndian);
    const Bytes sealed_reply = crypto::seal(key, nonce, reply_aad, reply_plain);

    costs.seal_us += w * time_us([&] {
      return crypto::seal(key, nonce, request_aad, request_plain).size();
    });
    costs.open_us += w * time_us([&] {
      return crypto::open(key, reply_aad, sealed_reply).value().size();
    });
    costs.marshal_us += w * (time_us([&] { return cdr::encode_giop(request_msg).size(); }) +
                             time_us([&] { return cdr::encode_giop(reply_msg).size(); }));
    costs.unmarshal_us +=
        w * (time_us([&] { return cdr::parse_giop(request_plain).value().index(); }) +
             time_us([&] { return cdr::parse_giop(reply_plain).value().index(); }));
    // One decision: f+1 matching ballots, as an f=1 client sees them.
    const cdr::Value value = ballot_value(reply.result);
    costs.vote_add_us += w * time_us([&] {
      core::Vote vote(1, core::VotePolicy::exact());
      std::size_t decided = 0;
      for (std::uint64_t src = 1; src <= 2; ++src) {
        decided += vote.add(core::Ballot{NodeId(src), reply_plain, value}).has_value();
      }
      return decided;
    }) / 2.0;
  }
  const Bytes agreement(static_cast<std::size_t>(std::max(1.0, traced_rep.bft_packet_bytes)),
                        0x5a);
  costs.mac_us = time_us([&] { return pairwise.tag(NodeId(1), NodeId(2), agreement)[0]; });
  return costs;
}

}  // namespace itdos::perfbench
