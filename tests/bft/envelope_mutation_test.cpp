// Seeded mutation test of bft::Envelope::decode, the fixed-offset decoder
// every received BFT message goes through.
//
// One valid envelope per MsgType, MAC-authenticated and signed, is mutated:
// cut at every length, its body length and auth count set to huge values,
// its type byte and signature flag set to every value, and random bytes
// flipped. Each mutant must be accepted exactly when a cdr::Decoder walk of
// the layout (kept here as the reference) accepts it and its alignment pads
// are zero; a rejection must be a kMalformedMessage status, and an accepted
// mutant must re-encode to its own bytes. No MAC covers the pads, so a
// decoder that skipped them unchecked would give one envelope many wire
// forms.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bft/messages.hpp"
#include "common/rng.hpp"
#include "wire.hpp"

namespace itdos::bft {
namespace {

constexpr cdr::ByteOrder kWire = cdr::ByteOrder::kLittleEndian;

/// What the reference decode reads: the fields, and where the pads are.
struct RefEnvelope {
  std::uint8_t type = 0;
  std::uint64_t sender = 0;
  Bytes body;
  Bytes auth;  // entries in wire form
  std::optional<crypto::Signature> signature;
  std::vector<std::size_t> pads;  // offsets of alignment padding
};

/// The envelope layout walked with cdr::Decoder, field by field.
std::optional<RefEnvelope> reference_decode(const Bytes& wire) {
  cdr::Decoder dec(wire, kWire);
  RefEnvelope env;
  bool zero_pads = true;
  const auto note_pad = [&](std::size_t alignment) {
    for (std::size_t at = dec.offset(); at % alignment != 0 && at < wire.size(); ++at) {
      env.pads.push_back(at);
      zero_pads = zero_pads && wire[at] == 0;
    }
  };
  auto type = dec.read_octet();
  if (!type.is_ok() || type.value() < 1 || type.value() > 10) return std::nullopt;
  env.type = type.value();
  note_pad(8);
  auto sender = dec.read_uint64();
  if (!sender.is_ok()) return std::nullopt;
  env.sender = sender.value();
  auto body = dec.read_bytes();
  if (!body.is_ok()) return std::nullopt;
  env.body = body.value();
  note_pad(4);
  auto count = dec.read_uint32();
  if (!count.is_ok()) return std::nullopt;
  if (std::uint64_t{count.value()} * AuthVector::kEntrySize > dec.remaining()) return std::nullopt;
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    if (i == 0) note_pad(8);
    auto node = dec.read_uint64();
    if (!node.is_ok()) return std::nullopt;
    auto tag = dec.read_array<crypto::kMacTagSize>();
    if (!tag.is_ok()) return std::nullopt;
    for (int b = 0; b < 8; ++b) env.auth.push_back(static_cast<std::uint8_t>(node.value() >> (8 * b)));
    env.auth.insert(env.auth.end(), tag.value().begin(), tag.value().end());
  }
  auto has_sig = dec.read_boolean();
  if (!has_sig.is_ok()) return std::nullopt;
  if (has_sig.value()) {
    auto sig = dec.read_array<crypto::kSignatureSize>();
    if (!sig.is_ok()) return std::nullopt;
    env.signature = sig.value();
  }
  if (!dec.exhausted() || !zero_pads) return std::nullopt;
  return env;
}

Bytes frame_bytes(const Envelope& env) {
  return wire_of(env).clone_bytes();
}

/// A body of each message type, encoded by its own codec.
Bytes sample_body(MsgType type) {
  Digest digest;
  digest.fill(0x5d);
  switch (type) {
    case MsgType::kRequest: {
      RequestMsg m{NodeId(1000), 7, BufView(to_bytes("add 3 4"))};
      return body_of(m);
    }
    case MsgType::kPrePrepare: {
      PrePrepareMsg m{ViewId(1), SeqNum(9), digest, BufView(to_bytes("batch-bytes"))};
      return body_of(m);
    }
    case MsgType::kPrepare: return body_of(PrepareMsg{ViewId(1), SeqNum(9), digest, NodeId(2)});
    case MsgType::kCommit: return body_of(CommitMsg{ViewId(1), SeqNum(9), digest, NodeId(3)});
    case MsgType::kReply:
      return body_of(ReplyMsg{ViewId(1), 7, NodeId(1000), NodeId(2), to_bytes("7")});
    case MsgType::kCheckpoint: return body_of(CheckpointMsg{SeqNum(16), digest, NodeId(4)});
    case MsgType::kViewChange: {
      ViewChangeMsg m;
      m.new_view = ViewId(2);
      m.stable_seq = SeqNum(16);
      m.stable_digest = digest;
      m.prepared.push_back(PreparedProof{ViewId(1), SeqNum(17), digest, BufView(to_bytes("req"))});
      m.replica = NodeId(3);
      return body_of(m);
    }
    case MsgType::kNewView: {
      NewViewMsg m;
      m.view = ViewId(2);
      m.primary = NodeId(3);
      m.pre_prepares.push_back(PrePrepareMsg{ViewId(2), SeqNum(17), digest, BufView()});
      return body_of(m);
    }
    case MsgType::kStateRequest: return body_of(StateRequestMsg{SeqNum(16), NodeId(4)});
    case MsgType::kStateResponse: {
      StateResponseMsg m;
      m.seq = SeqNum(16);
      m.state_digest = digest;
      m.snapshot = to_bytes("snapshot");
      m.replica = NodeId(1);
      m.view = ViewId(1);
      return body_of(m);
    }
  }
  return {};
}

/// Per type, a MAC-authenticated envelope (four entries) and a signed one.
std::vector<Bytes> captured_envelopes() {
  std::vector<Bytes> out;
  for (int t = 1; t <= 10; ++t) {
    for (const bool signed_env : {false, true}) {
      Envelope env;
      env.type = static_cast<MsgType>(t);
      env.sender = NodeId(3);
      env.body = sample_body(env.type);
      if (signed_env) {
        crypto::Signature sig;
        sig.fill(static_cast<std::uint8_t>(0xa0 + t));
        env.signature = sig;
      } else {
        Bytes entries;
        for (std::uint64_t node = 1; node <= 4; ++node) {
          crypto::MacTag tag;
          tag.fill(static_cast<std::uint8_t>(16 * t + node));
          add_entry(entries, NodeId(node), tag);
        }
        env.auth = AuthVector(BufView(std::move(entries)));
      }
      out.push_back(frame_bytes(env));
    }
  }
  return out;
}

/// Decodes `mutant` both ways and checks they agree; returns whether the
/// envelope decoder accepted it.
bool check_mutant(const Bytes& mutant) {
  const std::optional<RefEnvelope> ref = reference_decode(mutant);
  // An exact-size copy: a read past its end is a heap overflow that an
  // AddressSanitizer build reports.
  const Result<Envelope> decoded = Envelope::decode(BufView(Bytes(mutant)));
  EXPECT_EQ(decoded.is_ok(), ref.has_value()) << hex_encode(mutant) << ": "
                                               << decoded.status().to_string();
  if (!decoded.is_ok()) {
    EXPECT_EQ(decoded.status().code(), Errc::kMalformedMessage);
    return false;
  }
  if (!ref) return true;
  const Envelope& env = decoded.value();
  EXPECT_EQ(static_cast<std::uint8_t>(env.type), ref->type);
  EXPECT_EQ(env.sender.value, ref->sender);
  EXPECT_EQ(env.body, ref->body);
  EXPECT_EQ(Bytes(env.auth.bytes().begin(), env.auth.bytes().end()), ref->auth);
  EXPECT_EQ(env.auth.size(), ref->auth.size() / AuthVector::kEntrySize);
  EXPECT_EQ(env.signature, ref->signature);
  EXPECT_EQ(frame_bytes(env), mutant) << hex_encode(mutant);
  return true;
}

/// The offset of the auth count: after the body, 4-aligned.
std::size_t count_offset(const Bytes& wire) {
  const std::uint32_t body_len = static_cast<std::uint32_t>(wire[16]) |
                                 static_cast<std::uint32_t>(wire[17]) << 8 |
                                 static_cast<std::uint32_t>(wire[18]) << 16 |
                                 static_cast<std::uint32_t>(wire[19]) << 24;
  return (20 + body_len + 3) & ~std::size_t{3};
}

void put_le32(Bytes& wire, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) wire[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

TEST(EnvelopeMutationTest, CapturedEnvelopesRoundTrip) {
  for (const Bytes& wire : captured_envelopes()) {
    ASSERT_TRUE(check_mutant(wire)) << hex_encode(wire);
  }
}

TEST(EnvelopeMutationTest, EveryTruncationIsRejected) {
  for (const Bytes& wire : captured_envelopes()) {
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
      const Bytes mutant(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(check_mutant(mutant)) << "cut at " << cut << " of " << wire.size();
    }
  }
}

TEST(EnvelopeMutationTest, HugeBodyLengthsAndAuthCountsAreRejected) {
  for (const Bytes& wire : captured_envelopes()) {
    const auto body_len = static_cast<std::uint32_t>(count_offset(wire) - 20);
    for (const std::uint32_t huge :
         {0xffffffffu, 0x80000000u, 0x7fffffffu, static_cast<std::uint32_t>(wire.size()),
          static_cast<std::uint32_t>(wire.size() - 19), body_len + 4, body_len + 8}) {
      Bytes mutant = wire;
      put_le32(mutant, 16, huge);
      check_mutant(mutant);
    }
    const std::size_t count_at = count_offset(wire);
    const std::size_t left = wire.size() - count_at - 4;
    // 0x0aaaaaab entries of 24 bytes wrap a 32-bit product to 8.
    for (const std::uint32_t huge :
         {0xffffffffu, 0x0aaaaaabu, 0x80000000u, static_cast<std::uint32_t>(left / 24 + 1),
          static_cast<std::uint32_t>(left)}) {
      Bytes mutant = wire;
      put_le32(mutant, count_at, huge);
      EXPECT_FALSE(check_mutant(mutant)) << "auth count " << huge;
    }
  }
}

TEST(EnvelopeMutationTest, EveryTypeByteAndSignatureFlag) {
  for (const Bytes& wire : captured_envelopes()) {
    int accepted = 0;
    for (int type = 0; type < 256; ++type) {
      Bytes mutant = wire;
      mutant[0] = static_cast<std::uint8_t>(type);
      accepted += check_mutant(mutant) ? 1 : 0;
    }
    EXPECT_EQ(accepted, 10);  // MsgType's ten values, nothing else

    // The flag follows the authenticator entries; setting it on a MAC'd
    // envelope claims a signature that is not there, clearing it on a signed
    // one leaves the signature as trailing bytes.
    const bool signed_env = reference_decode(wire)->signature.has_value();
    const std::size_t flag_at = signed_env ? wire.size() - crypto::kSignatureSize - 1
                                           : wire.size() - 1;
    for (const int flag : {0, 1, 2, 0x80, 0xff}) {
      Bytes mutant = wire;
      mutant[flag_at] = static_cast<std::uint8_t>(flag);
      EXPECT_EQ(check_mutant(mutant), flag == (signed_env ? 1 : 0)) << "flag " << flag;
    }
  }
}

TEST(EnvelopeMutationTest, RandomByteFlips) {
  Rng rng(2207);
  for (const Bytes& wire : captured_envelopes()) {
    for (int trial = 0; trial < 400; ++trial) {
      Bytes mutant = wire;
      const std::uint64_t flips = 1 + rng.next_below(3);
      for (std::uint64_t i = 0; i < flips; ++i) {
        mutant[rng.next_below(mutant.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      }
      check_mutant(mutant);
    }
  }
}

TEST(EnvelopeMutationTest, NonZeroPadsAreRejected) {
  // Every pad of every captured envelope: the seven bytes after the type,
  // those before the auth count and those before the entries.
  std::size_t pads = 0;
  for (const Bytes& wire : captured_envelopes()) {
    const std::optional<RefEnvelope> ref = reference_decode(wire);
    ASSERT_TRUE(ref.has_value());
    for (const std::size_t at : ref->pads) {
      for (const std::uint8_t value : {0x01, 0x80, 0xff}) {
        Bytes mutant = wire;
        mutant[at] = value;
        const Result<Envelope> decoded = Envelope::decode(BufView(Bytes(mutant)));
        ASSERT_FALSE(decoded.is_ok()) << "pad at " << at << " = " << int{value};
        EXPECT_EQ(decoded.status().code(), Errc::kMalformedMessage);
        EXPECT_NE(decoded.status().to_string().find("non-zero envelope padding"),
                  std::string::npos)
            << decoded.status().to_string();
        EXPECT_FALSE(check_mutant(mutant));
      }
      ++pads;
    }
  }
  // Each envelope has the 7 header pads; the body lengths leave 0 to 3
  // before the count, and the MAC'd ones 0 or 4 before their entries.
  EXPECT_GE(pads, 20u * 7u);
}

TEST(EnvelopeMutationTest, DecodedAuthenticatorsAreViewsOfTheWire) {
  // tag_for reads the received bytes in place: a decoded envelope's entries
  // share the wire chunk.
  const Bytes wire = captured_envelopes()[2 * (static_cast<int>(MsgType::kPrepare) - 1)];
  const BufView view{Bytes(wire)};
  const Result<Envelope> decoded = Envelope::decode(view);
  ASSERT_TRUE(decoded.is_ok());
  const Envelope& env = decoded.value();
  ASSERT_EQ(env.auth.size(), 4u);
  EXPECT_GE(env.auth.bytes().data(), view.data());
  EXPECT_LE(env.auth.bytes().data() + env.auth.bytes().size(), view.data() + view.size());
  crypto::MacTag third;
  third.fill(16 * static_cast<int>(MsgType::kPrepare) + 3);
  EXPECT_EQ(env.tag_for(NodeId(3)), third);
  EXPECT_FALSE(env.tag_for(NodeId(5)).has_value());
}

}  // namespace
}  // namespace itdos::bft
