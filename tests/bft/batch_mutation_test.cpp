// Seeded mutation test of a PRE-PREPARE whose batch holds client-
// authenticated entries, through the decoders a backup runs on it:
// bft::Envelope, bft::PrePrepareMsg, batch::BatchMsg and each entry's
// bft::RequestMsg.
//
// A few valid proposals are mutated: cut at every length, their batch's
// entry count and each entry's request length and authenticator count set
// to hostile values, each batch pad set non-zero, the envelope's type byte
// set to every value and its sender flipped, and random bytes flipped.
// Each mutant must be accepted exactly when a cdr::Decoder walk of the
// layout (kept here as the reference) accepts it and the batch's alignment
// pads are zero; an accepted mutant must decode to the reference's entries
// and re-encode to its own bytes. No MAC covers the batch's pads (the
// proposal digest reads requests, not framing), so a decoder that skipped
// them unchecked would give one batch many wire forms.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "batch/batch_msg.hpp"
#include "bft/messages.hpp"
#include "common/rng.hpp"
#include "wire.hpp"

namespace itdos::bft {
namespace {

constexpr cdr::ByteOrder kWire = cdr::ByteOrder::kLittleEndian;

/// Where the batch starts in the envelope: the envelope body at 20, then
/// the PRE-PREPARE header.
constexpr std::size_t kBatchAt = 20 + kPrePrepareHeaderSize;

/// What the reference walk reads of an envelope carrying a PRE-PREPARE.
struct RefProposal {
  std::uint64_t sender = 0;
  std::vector<Bytes> requests;
  std::vector<Bytes> auths;
  // Offsets in the envelope of the batch's counts, lengths and pads.
  std::vector<std::size_t> lengths;      // each entry's request length
  std::vector<std::size_t> auth_counts;  // each entry's authenticator count
  std::vector<std::size_t> pads;
};

/// Walks `wire` with cdr::Decoder, field by field: the envelope, its
/// PRE-PREPARE body, the batch and each entry as a request. Accepts a
/// PRE-PREPARE whose batch pads are zero and whose every entry decodes.
std::optional<RefProposal> reference_walk(const Bytes& wire) {
  RefProposal ref;
  cdr::Decoder env(wire, kWire);
  auto type = env.read_octet();
  if (!type.is_ok() || type.value() != static_cast<std::uint8_t>(MsgType::kPrePrepare)) {
    return std::nullopt;
  }
  for (std::size_t at = 1; at < 8 && at < wire.size(); ++at) {
    if (wire[at] != 0) return std::nullopt;
  }
  auto sender = env.read_uint64();
  if (!sender.is_ok()) return std::nullopt;
  ref.sender = sender.value();
  auto body = env.read_bytes();
  if (!body.is_ok()) return std::nullopt;
  for (std::size_t at = env.offset(); at % 4 != 0 && at < wire.size(); ++at) {
    if (wire[at] != 0) return std::nullopt;
  }
  auto count = env.read_uint32();
  if (!count.is_ok()) return std::nullopt;
  if (std::uint64_t{count.value()} * AuthVector::kEntrySize > env.remaining()) return std::nullopt;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    if (i == 0) {
      for (std::size_t at = env.offset(); at % 8 != 0 && at < wire.size(); ++at) {
        if (wire[at] != 0) return std::nullopt;
      }
    }
    if (!env.read_uint64().is_ok() || !env.read_array<crypto::kMacTagSize>().is_ok()) {
      return std::nullopt;
    }
  }
  auto has_sig = env.read_boolean();
  if (!has_sig.is_ok()) return std::nullopt;
  if (has_sig.value() && !env.read_array<crypto::kSignatureSize>().is_ok()) return std::nullopt;
  if (!env.exhausted()) return std::nullopt;

  cdr::Decoder pp(body.value(), kWire);
  if (!pp.read_uint64().is_ok() || !pp.read_uint64().is_ok() ||
      !pp.read_array<crypto::kDigestSize>().is_ok()) {
    return std::nullopt;
  }
  auto request = pp.read_bytes();
  if (!request.is_ok() || !pp.exhausted()) return std::nullopt;

  const Bytes& batch = request.value();
  cdr::Decoder dec(batch, kWire);
  bool zero_pads = true;
  // Records the pad up to the next multiple of `alignment` and steps over
  // it (typed reads align themselves; the raw authenticator read does not).
  const auto note_pad = [&](std::size_t alignment) {
    const std::size_t from = dec.offset();
    std::size_t to = from;
    for (; to % alignment != 0 && to < batch.size(); ++to) {
      ref.pads.push_back(kBatchAt + to);
      zero_pads = zero_pads && batch[to] == 0;
    }
    return dec.read_raw(to - from).is_ok();
  };
  auto entries = dec.read_uint32();
  if (!entries.is_ok() || entries.value() == 0 || entries.value() > batch::kMaxBatchEntries) {
    return std::nullopt;
  }
  for (std::uint32_t i = 0; i < entries.value(); ++i) {
    if (!note_pad(4)) return std::nullopt;
    ref.lengths.push_back(kBatchAt + dec.offset());
    auto entry = dec.read_bytes();
    if (!entry.is_ok()) return std::nullopt;
    if (!note_pad(4)) return std::nullopt;
    ref.auth_counts.push_back(kBatchAt + dec.offset());
    auto auth_count = dec.read_uint32();
    if (!auth_count.is_ok()) return std::nullopt;
    if (std::uint64_t{auth_count.value()} * batch::kAuthEntrySize > dec.remaining()) {
      return std::nullopt;
    }
    Bytes auth;
    if (auth_count.value() > 0) {
      if (!note_pad(8)) return std::nullopt;
      auto raw = dec.read_raw(auth_count.value() * batch::kAuthEntrySize);
      if (!raw.is_ok()) return std::nullopt;
      auth = raw.value();
    }
    if (!RequestMsg::decode(BufView(Bytes(entry.value()))).is_ok()) return std::nullopt;
    ref.requests.push_back(entry.value());
    ref.auths.push_back(auth);
  }
  if (!dec.exhausted() || !zero_pads) return std::nullopt;
  return ref;
}

/// What a backup decodes: the envelope, the PRE-PREPARE, its batch and
/// every entry's request; nullopt where any of them refuses.
struct Decoded {
  Envelope env;
  PrePrepareMsg pp;
  batch::BatchMsg batch;
};

std::optional<Decoded> decode_chain(const BufView& wire) {
  Result<Envelope> env = Envelope::decode(wire);
  if (!env.is_ok()) {
    EXPECT_EQ(env.status().code(), Errc::kMalformedMessage);
    return std::nullopt;
  }
  if (env.value().type != MsgType::kPrePrepare) return std::nullopt;
  Result<PrePrepareMsg> pp = PrePrepareMsg::decode(env.value().body);
  if (!pp.is_ok()) return std::nullopt;
  Result<batch::BatchMsg> batch = batch::BatchMsg::decode(pp.value().request);
  if (!batch.is_ok()) {
    EXPECT_EQ(batch.status().code(), Errc::kMalformedMessage);
    return std::nullopt;
  }
  for (const batch::BatchEntry& entry : batch.value().entries) {
    if (!RequestMsg::decode(entry.request).is_ok()) return std::nullopt;
  }
  return Decoded{std::move(env).take(), std::move(pp).take(), std::move(batch).take()};
}

/// Decodes `mutant` both ways and checks they agree; returns whether the
/// backup's decoders accepted it.
bool check_mutant(const Bytes& mutant) {
  const std::optional<RefProposal> ref = reference_walk(mutant);
  // An exact-size copy: a read past its end is a heap overflow that an
  // AddressSanitizer build reports.
  const std::optional<Decoded> got = decode_chain(BufView(Bytes(mutant)));
  EXPECT_EQ(got.has_value(), ref.has_value()) << hex_encode(mutant);
  if (!got || !ref) return got.has_value();
  EXPECT_EQ(got->env.sender.value, ref->sender);
  const std::vector<batch::BatchEntry>& entries = got->batch.entries;
  EXPECT_EQ(entries.size(), ref->requests.size());
  for (std::size_t i = 0; i < entries.size() && i < ref->requests.size(); ++i) {
    EXPECT_EQ(entries[i].request, ref->requests[i]) << "entry " << i;
    EXPECT_EQ(entries[i].auth, ref->auths[i]) << "entry " << i;
  }
  EXPECT_EQ(got->batch.encode().clone_bytes(), got->pp.request.clone_bytes());
  EXPECT_EQ(wire_of(got->env).clone_bytes(), mutant) << hex_encode(mutant);
  return true;
}

/// One authenticated entry: a request of `payload_size` bytes from client
/// 1000 + `index`, with `auths` authenticator entries.
batch::BatchEntry make_entry(std::size_t index, std::size_t payload_size, std::size_t auths) {
  RequestMsg request;
  request.client = NodeId(1000 + index);
  request.timestamp = 7 + index;
  request.payload = BufView(Bytes(payload_size, static_cast<std::uint8_t>(0x61 + index)));
  Bytes auth;
  for (std::uint64_t node = 1; node <= auths; ++node) {
    crypto::MacTag tag;
    tag.fill(static_cast<std::uint8_t>(16 * index + node));
    add_entry(auth, NodeId(node), tag);
  }
  return batch::BatchEntry{BufView(body_of(request)), BufView(std::move(auth))};
}

/// MAC-authenticated envelopes carrying PRE-PREPAREs of one to three
/// entries, whose payload sizes and authenticator counts vary the pads.
std::vector<Bytes> captured_proposals() {
  const std::vector<std::vector<std::pair<std::size_t, std::size_t>>> shapes = {
      {{5, 4}},
      {{0, 4}, {1, 0}, {7, 1}},
      {{3, 2}, {64, 4}},
  };
  std::vector<Bytes> out;
  for (const auto& shape : shapes) {
    batch::BatchMsg batch;
    for (std::size_t i = 0; i < shape.size(); ++i) {
      batch.entries.push_back(make_entry(i, shape[i].first, shape[i].second));
    }
    PrePrepareMsg pp;
    pp.view = ViewId(1);
    pp.seq = SeqNum(9);
    pp.request = batch.encode();
    pp.req_digest = proposal_digest(batch);
    Envelope env;
    env.type = MsgType::kPrePrepare;
    env.sender = NodeId(1);
    env.body = BufView(body_of(pp));
    Bytes entries;
    for (std::uint64_t node = 2; node <= 4; ++node) {
      crypto::MacTag tag;
      tag.fill(static_cast<std::uint8_t>(node));
      add_entry(entries, NodeId(node), tag);
    }
    env.auth = AuthVector(BufView(std::move(entries)));
    out.push_back(wire_of(env).clone_bytes());
  }
  return out;
}

void put_le32(Bytes& wire, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) wire[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(BatchMutationTest, CapturedProposalsRoundTrip) {
  for (const Bytes& wire : captured_proposals()) {
    ASSERT_TRUE(check_mutant(wire)) << hex_encode(wire);
  }
}

TEST(BatchMutationTest, EveryTruncationIsRejected) {
  for (const Bytes& wire : captured_proposals()) {
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      const Bytes mutant(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(check_mutant(mutant)) << "cut at " << cut << " of " << wire.size();
    }
  }
}

TEST(BatchMutationTest, HostileCountsAndLengthsAreRejected) {
  for (const Bytes& wire : captured_proposals()) {
    const std::optional<RefProposal> ref = reference_walk(wire);
    ASSERT_TRUE(ref.has_value());
    const auto batch_size = static_cast<std::uint32_t>(wire.size() - kBatchAt);
    // The entry count: none, one more than there are, more than the bytes
    // could hold, past the protocol cap, and huge.
    const auto entries = static_cast<std::uint32_t>(ref->requests.size());
    for (const std::uint32_t hostile :
         {0u, entries + 1, batch_size / 8 + 1, batch::kMaxBatchEntries + 1, 0x80000000u,
          0xffffffffu}) {
      Bytes mutant = wire;
      put_le32(mutant, kBatchAt, hostile);
      EXPECT_FALSE(check_mutant(mutant)) << "entry count " << hostile;
    }
    // Each entry's authenticator count: 0x0aaaaaab entries of 24 bytes wrap
    // a 32-bit product to 8.
    for (const std::size_t at : ref->auth_counts) {
      for (const std::uint32_t hostile :
           {batch_size / 24 + 1, 0x0aaaaaabu, 0x80000000u, 0xffffffffu}) {
        Bytes mutant = wire;
        put_le32(mutant, at, hostile);
        EXPECT_FALSE(check_mutant(mutant)) << "auth count " << hostile << " at " << at;
      }
    }
    // Each entry's request length, huge or off by a little either way:
    // every one is checked against the reference, whatever it decides.
    for (const std::size_t at : ref->lengths) {
      const std::uint32_t length = cdr::detail::load_le32(wire, at);
      for (const std::uint32_t hostile :
           {0xffffffffu, batch_size, length + 1, length + 4, length - 1}) {
        Bytes mutant = wire;
        put_le32(mutant, at, hostile);
        check_mutant(mutant);
      }
    }
  }
}

TEST(BatchMutationTest, NonZeroBatchPadsAreRejected) {
  std::size_t pads = 0;
  for (const Bytes& wire : captured_proposals()) {
    const std::optional<RefProposal> ref = reference_walk(wire);
    ASSERT_TRUE(ref.has_value());
    for (const std::size_t at : ref->pads) {
      for (const std::uint8_t value : {0x01, 0x80, 0xff}) {
        Bytes mutant = wire;
        mutant[at] = value;
        EXPECT_FALSE(check_mutant(mutant)) << "pad at " << at;
        const Envelope env = Envelope::decode(BufView(Bytes(mutant))).value();
        const Result<batch::BatchMsg> batch =
            batch::BatchMsg::decode(PrePrepareMsg::decode(env.body).value().request);
        ASSERT_FALSE(batch.is_ok());
        EXPECT_NE(batch.status().to_string().find("non-zero BATCH padding"), std::string::npos)
            << batch.status().to_string();
      }
      ++pads;
    }
  }
  // Payloads of 5, 0, 1, 7, 3 and 64 bytes leave pads after requests of
  // 25, 20, 21, 27, 23 and 84 bytes, and before some authenticators.
  EXPECT_GE(pads, 10u);
}

TEST(BatchMutationTest, TypeAndSenderFlips) {
  for (const Bytes& wire : captured_proposals()) {
    int accepted = 0;
    for (int type = 0; type < 256; ++type) {
      Bytes mutant = wire;
      mutant[0] = static_cast<std::uint8_t>(type);
      accepted += check_mutant(mutant) ? 1 : 0;
    }
    EXPECT_EQ(accepted, 1);  // PRE-PREPARE only
    for (std::size_t at = 8; at < 16; ++at) {
      for (const std::uint8_t flip : {0x01, 0x80}) {
        Bytes mutant = wire;
        mutant[at] ^= flip;
        EXPECT_TRUE(check_mutant(mutant)) << "sender byte " << at;
      }
    }
  }
}

TEST(BatchMutationTest, RandomByteFlips) {
  Rng rng(2511);
  for (const Bytes& wire : captured_proposals()) {
    for (int trial = 0; trial < 600; ++trial) {
      Bytes mutant = wire;
      const std::uint64_t flips = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < flips; ++i) {
        // Most flips land in the batch: the envelope has its own test.
        const std::size_t at = rng.next_below(4) == 0
                                   ? rng.next_below(mutant.size())
                                   : kBatchAt + rng.next_below(mutant.size() - kBatchAt);
        mutant[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      check_mutant(mutant);
    }
  }
}

}  // namespace
}  // namespace itdos::bft
