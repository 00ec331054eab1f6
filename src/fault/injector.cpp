#include "fault/injector.hpp"

namespace itdos::fault {

FaultInjector::FaultInjector(net::Network& net, FaultPlan plan)
    : net_(net),
      plan_(std::move(plan)),
      rng_(plan_.seed ^ 0xfa0175c0de5eedULL),
      tel_(&net.sim().telemetry()) {
  auto& reg = tel_->metrics();
  injected_ = &reg.counter("fault.injected");
  dropped_ = &reg.counter("fault.dropped");
  delayed_ = &reg.counter("fault.delayed");
  duplicated_ = &reg.counter("fault.duplicated");
  corrupted_ = &reg.counter("fault.corrupted");
}

FaultInjector::~FaultInjector() {
  for (NodeId node : intercepted_) net_.set_interceptor(node, nullptr);
}

void FaultInjector::trace_inject(NodeId node, InjectKind kind,
                                 std::uint64_t detail) {
  injected_->inc();
  tel_->trace(telemetry::TraceKind::kFaultInject, node, 0,
              static_cast<std::uint64_t>(kind), detail);
}

void FaultInjector::ensure_intercepted(NodeId node) {
  if (intercepted_.insert(node).second) {
    net_.set_interceptor(node, [this](const net::Packet& packet) {
      return intercept(packet);
    });
  }
}

void FaultInjector::arm_links() {
  for (const LinkFault& fault : plan_.link_faults) {
    ensure_intercepted(fault.from_node);
  }
  for (const PartitionWindow& window : plan_.partitions) {
    net_.sim().schedule_at(window.form, [this, &window] {
      net_.partition(window.side_a, window.side_b);
      trace_inject(*window.side_a.begin(), InjectKind::kPartitionForm,
                   window.side_b.size());
    });
    net_.sim().schedule_at(window.heal, [this, &window] {
      // Restore only the pairs this window cut — other injected cuts (or
      // test-made ones) must survive an unrelated heal.
      for (NodeId a : window.side_a) {
        for (NodeId b : window.side_b) net_.set_link(a, b, true);
      }
      trace_inject(*window.side_a.begin(), InjectKind::kPartitionHeal,
                   window.side_b.size());
    });
  }
}

std::optional<BufView> FaultInjector::intercept(const net::Packet& packet) {
  if (reinjecting_) return packet.payload;  // our own delayed/dup view
  const SimTime now = net_.sim().now();
  for (const AdaptiveState& st : adaptive_) {
    if (st.target.value == 0 || !st.targets.contains(packet.from) ||
        !st.spec.window.contains(now)) {
      continue;
    }
    if (st.spec.drop > 0.0 && rng_.chance(st.spec.drop)) {
      dropped_->inc();
      trace_inject(packet.from, InjectKind::kDrop, packet.to.value);
      return std::nullopt;
    }
    if (st.spec.delay_probability > 0.0 &&
        rng_.chance(st.spec.delay_probability)) {
      const std::int64_t lag =
          rng_.next_in(st.spec.delay_min_ns, st.spec.delay_max_ns);
      const NodeId from = packet.from;
      const NodeId to = packet.to;
      const BufView payload = packet.payload;
      net_.sim().schedule_after(lag, [this, from, to, payload] {
        reinjecting_ = true;
        net_.send(from, to, payload);
        reinjecting_ = false;
      });
      delayed_->inc();
      trace_inject(packet.from, InjectKind::kDelay,
                   static_cast<std::uint64_t>(lag));
      return std::nullopt;
    }
  }
  for (const LinkFault& fault : plan_.link_faults) {
    if (!fault.applies_to(packet.from, packet.to, now)) continue;
    // Copy-on-write: the sealed payload is shared with other recipients, so
    // corruption clones it (counted) and everything else passes the view.
    BufView payload = packet.payload;
    if (fault.corrupt > 0.0 && !payload.empty() && rng_.chance(fault.corrupt)) {
      Bytes mutated = payload.clone_bytes();
      const std::size_t index = rng_.next_below(mutated.size());
      mutated[index] ^= static_cast<std::uint8_t>(1 + rng_.next_below(255));
      payload = BufView(std::move(mutated));
      corrupted_->inc();
      trace_inject(packet.from, InjectKind::kCorrupt, packet.to.value);
    }
    if (fault.drop > 0.0 && rng_.chance(fault.drop)) {
      dropped_->inc();
      trace_inject(packet.from, InjectKind::kDrop, packet.to.value);
      return std::nullopt;
    }
    if (fault.duplicate > 0.0 && rng_.chance(fault.duplicate)) {
      const std::int64_t lag = rng_.next_in(micros(10), micros(500));
      const NodeId from = packet.from;
      const NodeId to = packet.to;
      net_.sim().schedule_after(lag, [this, from, to, payload] {
        reinjecting_ = true;
        net_.send(from, to, payload);
        reinjecting_ = false;
      });
      duplicated_->inc();
      trace_inject(packet.from, InjectKind::kDuplicate, packet.to.value);
    }
    if (fault.delay_probability > 0.0 && rng_.chance(fault.delay_probability)) {
      const std::int64_t lag = rng_.next_in(fault.delay_min_ns, fault.delay_max_ns);
      const NodeId from = packet.from;
      const NodeId to = packet.to;
      net_.sim().schedule_after(lag, [this, from, to, payload] {
        reinjecting_ = true;
        net_.send(from, to, payload);
        reinjecting_ = false;
      });
      delayed_->inc();
      trace_inject(packet.from, InjectKind::kDelay,
                   static_cast<std::uint64_t>(lag));
      return std::nullopt;  // the original is held back, not lost
    }
    return payload;  // first matching fault wins
  }
  return packet.payload;
}

void FaultInjector::arm_replica(const ReplicaFault& fault,
                                bft::Replica& replica) {
  bft::Replica::ByzantineHooks hooks;
  hooks.silent = fault.silent;
  hooks.corrupt_macs = fault.corrupt_macs;
  hooks.equivocate = fault.equivocate;
  bft::Replica* target = &replica;
  net_.sim().schedule_at(fault.window.from, [this, target, hooks] {
    target->set_byzantine(hooks);
    trace_inject(target->id(), InjectKind::kByzantineOn,
                 (hooks.silent ? 1u : 0u) | (hooks.corrupt_macs ? 2u : 0u) |
                     (hooks.equivocate ? 4u : 0u));
  });
  if (fault.window.bounded()) {
    net_.sim().schedule_at(fault.window.until, [this, target] {
      target->set_byzantine({});
      trace_inject(target->id(), InjectKind::kByzantineOff, 0);
    });
  }
  if (fault.stale_replay_period_ns > 0) {
    const SimTime end =
        fault.window.bounded() ? fault.window.until : plan_.heal_time;
    for (SimTime t{fault.window.from.ns + fault.stale_replay_period_ns};
         t.ns < end.ns; t.ns += fault.stale_replay_period_ns) {
      net_.sim().schedule_at(t, [target] { target->replay_stale_view_change(); });
    }
  }
}

void FaultInjector::arm_element(const ElementFault& fault,
                                core::ItdosSystem& system, DomainId domain) {
  core::ItdosSystem* sys = &system;
  const ElementFault spec = fault;
  net_.sim().schedule_at(fault.at, [this, sys, domain, spec] {
    core::DomainElement& element = sys->element(domain, spec.rank);
    switch (spec.kind) {
      case ElementFault::Kind::kDissentingReplies:
        element.set_reply_mutator([](cdr::ReplyMessage reply) {
          reply.result = cdr::Value::int64(-666);
          return reply;
        });
        break;
      case ElementFault::Kind::kCorruptStateBundles:
        element.set_bundle_corruptor([](Bytes plain) {
          // MAC-valid wrong content: the seal happens after this hook, so
          // only the joining element's f+1 byte-identical-offers rule can
          // reject the bundle.
          if (!plain.empty()) plain[plain.size() / 2] ^= 0x5a;
          return plain;
        });
        break;
      case ElementFault::Kind::kBogusChangeRequests: {
        // Frame a correct element. The reporter claims its (replicated)
        // domain, so the GM's f+1-matching-reports rule applies — one rogue
        // reporter must never reach the expulsion threshold.
        core::ChangeRequestMsg frame;
        frame.reporter = element.smiop_node();
        frame.reporter_domain = domain;
        frame.accused_domain = domain;
        frame.accused_element = sys->element(domain, spec.victim_rank).smiop_node();
        frame.conn = ConnectionId(1);
        frame.rid = RequestId(1);
        element.party().send_change_request(frame);
        break;
      }
    }
    trace_inject(element.smiop_node(), InjectKind::kElementFault,
                 static_cast<std::uint64_t>(spec.kind));
  });
}

void FaultInjector::arm_client(const ClientFault& fault,
                               core::ItdosClient& client) {
  core::ItdosClient* target = &client;
  const ClientFault spec = fault;
  net_.sim().schedule_at(fault.at, [this, target, spec] {
    switch (spec.kind) {
      case ClientFault::Kind::kDuplicateRequests:
        target->party().set_misbehavior(/*duplicate=*/true, /*replay=*/false);
        break;
      case ClientFault::Kind::kReplayStaleFrames:
        target->party().set_misbehavior(/*duplicate=*/false, /*replay=*/true);
        break;
    }
    trace_inject(target->smiop_node(), InjectKind::kClientFault,
                 static_cast<std::uint64_t>(spec.kind));
  });
}

void FaultInjector::arm_adaptive(const AdaptiveFault& fault,
                                 core::ItdosSystem& system, DomainId domain) {
  AdaptiveState state;
  state.spec = fault;
  state.domain = domain;
  state.system = &system;
  adaptive_.push_back(state);
  const std::size_t index = adaptive_.size() - 1;
  // Interceptors must exist before the first packet the adversary might
  // touch; cover every current element now, fresh identities on retarget.
  if (const core::DomainInfo* info = system.directory().find_domain(domain)) {
    for (NodeId node : info->smiop_nodes()) ensure_intercepted(node);
  }
  net_.sim().schedule_at(fault.window.from,
                         [this, index] { adaptive_tick(index); });
}

void FaultInjector::adaptive_tick(std::size_t index) {
  AdaptiveState& st = adaptive_[index];
  const SimTime now = net_.sim().now();
  if (!st.spec.window.contains(now)) {
    st.target = NodeId();  // stand down once the window closes
    return;
  }
  const core::DomainInfo* info = st.system->directory().find_domain(st.domain);
  if (info != nullptr) {
    // Deepest replicated queue wins; ties go to the lowest rank (the first
    // strictly-greater rule below). Identities come from the LIVE directory,
    // so a mid-run replacement is immediately targetable.
    NodeId best;
    NodeId best_bft;
    std::int64_t best_depth = -1;
    const auto& gauges = tel_->metrics().gauges();
    for (const core::ElementInfo& element : info->elements) {
      std::int64_t depth = 0;
      const auto it = gauges.find(telemetry::metric_name("queue", element.smiop_node, "depth"));
      if (it != gauges.end()) depth = it->second.value();
      if (depth > best_depth) {
        best_depth = depth;
        best = element.smiop_node;
        best_bft = element.bft_node;
      }
    }
    if (best.value != 0 && best != st.target) {
      st.target = best;
      st.targets = {best, best_bft};
      ensure_intercepted(best);
      ensure_intercepted(best_bft);
      ++retargets_;
      tel_->trace(telemetry::TraceKind::kAdversaryRetarget, best, 0, best.value,
                  static_cast<std::uint64_t>(best_depth));
    }
  }
  net_.sim().schedule_after(st.spec.interval_ns,
                            [this, index] { adaptive_tick(index); });
}

void FaultInjector::arm_gm(const GmFault& fault, core::ItdosSystem& system) {
  core::ItdosSystem* sys = &system;
  const GmFault spec = fault;
  net_.sim().schedule_at(fault.at, [this, sys, spec] {
    core::GmElement& gm = sys->gm_element(spec.index);
    if (spec.withhold_shares) gm.set_withhold_shares(true);
    if (spec.corrupt_shares) gm.set_corrupt_shares(true);
    trace_inject(gm.replica().id(), InjectKind::kGmFault,
                 (spec.withhold_shares ? 1u : 0u) |
                     (spec.corrupt_shares ? 2u : 0u));
  });
}

}  // namespace itdos::fault
