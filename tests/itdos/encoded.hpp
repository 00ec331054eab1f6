// A message's wire bytes for tests that hand them to a queue, a transport
// or a decoder: marshalled by the message's one encoder, into a chunk of a
// test-wide arena.
#pragma once

#include "common/buffer.hpp"

namespace itdos::core {

template <typename Msg>
BufView encoded(const Msg& msg) {
  static Arena arena;
  return msg.encode_into(arena);
}

}  // namespace itdos::core
