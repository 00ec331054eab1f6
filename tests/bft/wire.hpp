// Wire helpers for tests that hand-build BFT traffic: a body's bytes
// through its one marshal function, authenticator entries in wire form and
// the frame of an arbitrary (possibly hostile) envelope.
#pragma once

#include "bft/messages.hpp"

namespace itdos::bft {

/// `msg`'s body, as its write() marshals it into a frame.
template <typename Msg>
Bytes body_of(const Msg& msg) {
  cdr::Encoder enc(cdr::ByteOrder::kLittleEndian, msg.size_hint());
  msg.write(enc);
  return enc.take();
}

/// Appends an authenticator entry for `receiver` to `entries` (wire form).
inline void add_entry(Bytes& entries, NodeId receiver, const crypto::MacTag& tag) {
  for (int i = 0; i < 8; ++i) {
    entries.push_back(static_cast<std::uint8_t>(receiver.value >> (8 * i)));
  }
  append(entries, ByteView(tag.data(), tag.size()));
}

/// The frame a sender of `env` puts on the wire: its body, then its
/// authenticator entries and its signature, whichever it has.
inline BufView wire_of(const Envelope& env) {
  Frame frame(env.type, env.sender, env.body,
              Frame::trailer_bound(env.auth.size(), env.signature.has_value()));
  return frame.seal_entries(env.auth.bytes(), env.signature);
}

}  // namespace itdos::bft
