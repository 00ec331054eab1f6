#include "itdos/proxy.hpp"

#include "bft/messages.hpp"
#include "itdos/smiop_msg.hpp"

namespace itdos::core {

bool FirewallProxy::admit(const Options& options, const Counters& counters,
                          const net::Packet& packet) {
  if (packet.payload.size() > options.max_message_bytes) {
    counters.dropped_oversize->inc();
    return false;
  }
  if (options.allow_bft && bft::Envelope::decode(packet.payload).is_ok()) {
    counters.admitted->inc();
    return true;
  }
  if (options.allow_smiop && parses_as_smiop(packet.payload)) {
    counters.admitted->inc();
    return true;
  }
  counters.dropped_malformed->inc();
  return false;
}

FirewallProxy::FirewallProxy(telemetry::MetricsRegistry& registry, DomainId domain)
    : FirewallProxy(registry, domain, Options{}) {}

FirewallProxy::FirewallProxy(telemetry::MetricsRegistry& registry, DomainId domain,
                             Options options)
    : options_(options),
      counters_{&registry.counter(telemetry::metric_name("proxy", domain, "admitted")),
                &registry.counter(telemetry::metric_name("proxy", domain, "dropped_malformed")),
                &registry.counter(telemetry::metric_name("proxy", domain, "dropped_oversize"))} {}

bool FirewallProxy::admit(const net::Packet& packet) {
  return admit(options_, counters_, packet);
}

void FirewallProxy::protect(net::Network& net, NodeId node) {
  // Capture by value: the filter stays valid even if this proxy object goes
  // away before the node does (the counters live in the registry).
  net.set_inbound_filter(node,
                         [options = options_, counters = counters_](const net::Packet& p) {
                           return admit(options, counters, p);
                         });
}

void FirewallProxy::release(net::Network& net, NodeId node) {
  net.set_inbound_filter(node, nullptr);
}

}  // namespace itdos::core
