// The ORB core: client-side invocation machinery over a pluggable protocol.
//
// Responsibilities (mirroring the slice of TAO the paper builds on):
//   * connection cache, one per target domain — "All client interactions
//     with separate objects hosted by a particular server can use the same
//     connection. Since connection-establishment is a fairly heavyweight
//     process, connection reuse enhances performance" (§3.4);
//   * strictly-increasing request ids per connection and one outstanding
//     request at a time (§3.6) — further requests queue;
//   * mapping GIOP reply status back to Result<Value>.
#pragma once

#include <deque>
#include <map>

#include "orb/adapter.hpp"
#include "orb/transport.hpp"
#include "telemetry/metrics.hpp"

namespace itdos::orb {

class Orb {
 public:
  using InvokeCompletion = std::function<void(Result<cdr::Value>)>;

  /// Registers the `orb.<node>.*` counters in `registry`; `node` is the
  /// endpoint this ORB invokes from.
  Orb(DomainId local_domain, std::unique_ptr<PluggableProtocol> protocol,
      telemetry::MetricsRegistry& registry, NodeId node);

  ObjectAdapter& adapter() { return adapter_; }
  const ObjectAdapter& adapter() const { return adapter_; }
  PluggableProtocol& protocol() { return *protocol_; }

  /// Invokes `operation` on the object `ref` with `arguments`. The hosting
  /// domain is resolved through the protocol (routed refs become concrete
  /// here); the cached connection to it is reused or established. Exceptions carried
  /// in the reply surface as error Status (kPermissionDenied for user
  /// exceptions, kInternal for system exceptions).
  void invoke(const ObjectRef& ref, const std::string& operation, cdr::Value arguments,
              InvokeCompletion done);

  /// Drops the cached connection to a domain (used when rekeying evicts us,
  /// or on transport failure; the next invoke reconnects).
  void invalidate_connection(DomainId domain);

 private:
  struct PendingInvoke {
    ObjectRef ref;
    std::string operation;
    cdr::Value arguments;
    InvokeCompletion done;
  };

  struct DomainChannel {
    std::shared_ptr<ClientConnection> connection;  // null while connecting
    bool connecting = false;
    bool busy = false;  // one outstanding request per connection (§3.6)
    std::uint64_t next_request_id = 1;
    std::deque<PendingInvoke> queue;
  };

  void start_connect(DomainId domain);
  void pump(DomainId domain);

  DomainId local_domain_;
  ObjectAdapter adapter_;
  std::unique_ptr<PluggableProtocol> protocol_;
  std::map<DomainId, DomainChannel> channels_;
  struct {
    telemetry::Counter* connections_established;
    telemetry::Counter* connect_failures;
    telemetry::Counter* requests_sent;
    telemetry::Counter* replies_ok;
    telemetry::Counter* replies_exception;
    telemetry::Counter* transport_errors;
  } metrics_{};
};

}  // namespace itdos::orb
