#include "orb/orb.hpp"

#include "common/log.hpp"

namespace itdos::orb {

namespace {
constexpr std::string_view kLog = "orb";
}

Orb::Orb(DomainId local_domain, std::unique_ptr<PluggableProtocol> protocol,
         telemetry::MetricsRegistry& registry, NodeId node)
    : local_domain_(local_domain),
      adapter_(local_domain),
      protocol_(std::move(protocol)) {
  const auto counter = [&](std::string_view name) {
    return &registry.counter(telemetry::metric_name("orb", node, name));
  };
  metrics_.connections_established = counter("connections_established");
  metrics_.connect_failures = counter("connect_failures");
  metrics_.requests_sent = counter("requests_sent");
  metrics_.replies_ok = counter("replies_ok");
  metrics_.replies_exception = counter("replies_exception");
  metrics_.transport_errors = counter("transport_errors");
}

void Orb::invoke(const ObjectRef& ref, const std::string& operation,
                 cdr::Value arguments, InvokeCompletion done) {
  // Resolve the hosting domain before touching the connection cache: a
  // routed ref (shard routing) and a concrete ref to the same domain must
  // share one channel, and the whole cache is keyed by resolved domain.
  ObjectRef target = ref;
  target.domain = protocol_->resolve(ref);
  const DomainId domain = target.domain;
  DomainChannel& channel = channels_[domain];
  channel.queue.push_back(
      PendingInvoke{std::move(target), operation, std::move(arguments), std::move(done)});
  if (channel.connection == nullptr && !channel.connecting) {
    start_connect(domain);
  } else {
    pump(domain);
  }
}

void Orb::invalidate_connection(DomainId domain) {
  const auto it = channels_.find(domain);
  if (it == channels_.end()) return;
  it->second.connection.reset();
  it->second.busy = false;
  // Queued invocations stay queued; the next invoke (or pump) reconnects.
  if (!it->second.queue.empty() && !it->second.connecting) start_connect(domain);
}

void Orb::start_connect(DomainId domain) {
  DomainChannel& channel = channels_[domain];
  channel.connecting = true;
  // Any ref to the domain identifies it for connection purposes.
  const ObjectRef& ref = channel.queue.front().ref;
  protocol_->connect(ref, [this, domain](Result<std::shared_ptr<ClientConnection>> r) {
    DomainChannel& ch = channels_[domain];
    ch.connecting = false;
    if (!r.is_ok()) {
      metrics_.connect_failures->inc();
      ITDOS_WARN(kLog) << "connect to domain " << domain.to_string()
                       << " failed: " << r.status().to_string();
      // Fail everything queued; callers may retry.
      auto queue = std::move(ch.queue);
      ch.queue.clear();
      for (PendingInvoke& p : queue) p.done(r.status());
      return;
    }
    metrics_.connections_established->inc();
    ch.connection = std::move(r).take();
    pump(domain);
  });
}

void Orb::pump(DomainId domain) {
  DomainChannel& channel = channels_[domain];
  if (channel.connection == nullptr || channel.busy || channel.queue.empty()) return;
  channel.busy = true;
  PendingInvoke invoke = std::move(channel.queue.front());
  channel.queue.pop_front();

  cdr::RequestMessage request;
  request.request_id = RequestId(channel.next_request_id++);
  request.response_expected = true;
  request.object_key = invoke.ref.key;
  request.operation = invoke.operation;
  request.interface_name = invoke.ref.interface_name;
  request.arguments = std::move(invoke.arguments);
  metrics_.requests_sent->inc();

  InvokeCompletion done = std::move(invoke.done);
  channel.connection->send_request(
      std::move(request),
      [this, domain, done = std::move(done)](Result<cdr::ReplyMessage> r) {
        DomainChannel& ch = channels_[domain];
        ch.busy = false;
        if (!r.is_ok()) {
          metrics_.transport_errors->inc();
          done(r.status());
        } else {
          cdr::ReplyMessage reply = std::move(r).take();
          switch (reply.status) {
            case cdr::ReplyStatus::kNoException:
              metrics_.replies_ok->inc();
              done(std::move(reply.result));
              break;
            case cdr::ReplyStatus::kUserException:
              metrics_.replies_exception->inc();
              done(error(Errc::kPermissionDenied,
                         "user exception: " + reply.exception_detail));
              break;
            case cdr::ReplyStatus::kSystemException:
              metrics_.replies_exception->inc();
              // Admission-control sheds surface as a dedicated error code so
              // open-loop callers can tell backpressure from server faults.
              if (reply.exception_detail.starts_with("ITDOS-OVERLOAD")) {
                done(error(Errc::kResourceExhausted,
                           "overload: " + reply.exception_detail));
              } else {
                done(error(Errc::kInternal,
                           "system exception: " + reply.exception_detail));
              }
              break;
          }
        }
        pump(domain);
      });
}

}  // namespace itdos::orb
