// The IT-CORBA firewall proxy (Figure 1).
//
// The paper introduces proxies at each enclave boundary that "monitor BFTM
// messages" (and declines to elaborate "for reasons of brevity"). We
// implement the stated role: a guard on a protected node's enclave link that
// admits only well-formed ITDOS traffic — BFT envelopes, SMIOP messages —
// within a configurable size budget, and drops (and counts) everything else.
// Malformed floods from outside the enclave never reach the protocol stack.
#pragma once

#include "net/network.hpp"
#include "telemetry/metrics.hpp"

namespace itdos::core {

class FirewallProxy {
 public:
  struct Options {
    std::size_t max_message_bytes = 1 << 20;
    bool allow_bft = true;    // Castro-Liskov envelopes
    bool allow_smiop = true;  // key shares / direct replies
  };

  /// Registers the `proxy.<domain>.*` counters in `registry`, which must
  /// outlive every node this proxy protects.
  FirewallProxy(telemetry::MetricsRegistry& registry, DomainId domain);
  FirewallProxy(telemetry::MetricsRegistry& registry, DomainId domain, Options options);

  /// Guards `node`: installs this proxy as its enclave-boundary filter.
  void protect(net::Network& net, NodeId node);

  /// Removes the guard from `node`.
  void release(net::Network& net, NodeId node);

  /// The admission decision (exposed for tests).
  bool admit(const net::Packet& packet);

 private:
  struct Counters {
    telemetry::Counter* admitted;
    telemetry::Counter* dropped_malformed;
    telemetry::Counter* dropped_oversize;
  };

  static bool admit(const Options& options, const Counters& counters,
                    const net::Packet& packet);

  Options options_{};
  Counters counters_{};
};

}  // namespace itdos::core
