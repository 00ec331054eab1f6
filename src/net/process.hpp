// Process: base class for everything that lives on the simulated network.
// Owns attachment lifetime (RAII: detaches on destruction) and offers the
// send/multicast/timer surface the protocol layers use.
#pragma once

#include <utility>

#include "net/network.hpp"

namespace itdos::net {

class Process {
 public:
  Process(Network& net, NodeId id) : net_(net), id_(id) {
    net_.attach(id_, [this](const Packet& p) { on_packet(p); });
  }

  // Timers must not outlive the process: crash-style teardown (element
  // replacement, recovery watchdog aborts) destroys processes with timers
  // still armed, and the simulator would otherwise fire them into freed
  // memory.
  virtual ~Process() {
    net_.sim().cancel_owned(this);
    net_.detach(id_);
  }

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  NodeId id() const { return id_; }

 protected:
  /// Handles an inbound datagram. Payload authenticity is the subclass's
  /// problem — the network is untrusted.
  virtual void on_packet(const Packet& packet) = 0;

  void send_to(NodeId to, BufView payload) { net_.send(id_, to, std::move(payload)); }

  void multicast_to(McastGroupId group, BufView payload) {
    net_.multicast(id_, group, std::move(payload));
  }

  void join(McastGroupId group) { net_.join_group(group, id_); }
  void leave(McastGroupId group) { net_.leave_group(group, id_); }

  /// Arms a timer the destructor cancels if it is still pending. The
  /// closure goes straight into the simulator's slot, so a `[this]` one
  /// fits std::function's inline buffer and allocates nothing.
  template <typename F>
  EventHandle set_timer(std::int64_t delay_ns, F&& fn) {
    return net_.sim().schedule_after(delay_ns, std::forward<F>(fn), this);
  }

  void cancel_timer(EventHandle handle) { net_.sim().cancel(handle); }

  Simulator& sim() { return net_.sim(); }
  Network& net() { return net_; }
  SimTime now() const { return net_.sim().now(); }

 private:
  Network& net_;
  NodeId id_;
};

}  // namespace itdos::net
