#include "net/network.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/process.hpp"

namespace itdos::net {
namespace {

NetConfig fast_config() {
  NetConfig c;
  c.min_delay_ns = 10;
  c.max_delay_ns = 20;
  return c;
}

/// Test process that records everything it receives.
class Recorder : public Process {
 public:
  Recorder(Network& net, NodeId id) : Process(net, id) {}

  std::vector<Packet> received;

  using Process::join;
  using Process::leave;
  using Process::multicast_to;
  using Process::send_to;

 protected:
  void on_packet(const Packet& packet) override { received.push_back(packet); }
};

class NetworkTest : public ::testing::Test {
 protected:
  /// A `net.*` counter from the simulator's registry.
  std::uint64_t net_count(std::string_view name) const {
    return sim_.telemetry().metrics().counter_value("net." + std::string(name));
  }

  Simulator sim_{42};
  Network net_{sim_, fast_config()};
};

TEST_F(NetworkTest, UnicastDelivery) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  a.send_to(NodeId(2), to_bytes("hello"));
  sim_.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].from, NodeId(1));
  EXPECT_EQ(to_string(b.received[0].payload), "hello");
  EXPECT_FALSE(b.received[0].group.has_value());
  EXPECT_TRUE(a.received.empty());
}

TEST_F(NetworkTest, DeliveryIsDelayed) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  a.send_to(NodeId(2), to_bytes("x"));
  EXPECT_TRUE(b.received.empty());  // nothing delivered synchronously
  sim_.run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_GE(sim_.now().ns, 10);
}

TEST_F(NetworkTest, SendToUnknownNodeDropped) {
  Recorder a(net_, NodeId(1));
  a.send_to(NodeId(99), to_bytes("x"));
  sim_.run();
  EXPECT_EQ(net_count("packets_dropped"), 1u);
}

TEST_F(NetworkTest, MulticastReachesEveryMemberButTheSender) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  Recorder c(net_, NodeId(3));
  Recorder outsider(net_, NodeId(4));
  const McastGroupId g(7);
  a.join(g);
  b.join(g);
  c.join(g);
  a.multicast_to(g, to_bytes("mc"));
  sim_.run();
  EXPECT_TRUE(a.received.empty());  // no loopback copy
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_EQ(c.received.size(), 1u);
  EXPECT_TRUE(outsider.received.empty());
  EXPECT_EQ(b.received[0].group, std::optional<McastGroupId>(g));
  EXPECT_EQ(net_count("packets_delivered"), 2u);
  EXPECT_EQ(sim_.events_executed(), 2u);  // the sender's copy is never scheduled
}

/// Records when each packet arrived and its first payload byte.
class Stamper : public Process {
 public:
  Stamper(Network& net, NodeId id) : Process(net, id) {}

  std::vector<std::pair<std::int64_t, std::uint8_t>> arrivals;

  using Process::join;
  using Process::multicast_to;

 protected:
  void on_packet(const Packet& packet) override {
    arrivals.emplace_back(now().ns, packet.payload[0]);
  }
};

TEST_F(NetworkTest, SenderCopyKeepsItsDrawsAndDrops) {
  // The sender's own copy of a multicast is not delivered, but it still
  // takes its loss, duplication and delay draws and traces its drops, so
  // everything else happens as it did when the copy was delivered. The
  // pinned values were computed with the copy delivered.
  NetConfig lossy;
  lossy.min_delay_ns = 10;
  lossy.max_delay_ns = 1000;
  lossy.drop_probability = 0.25;
  lossy.duplicate_probability = 0.25;
  Network net(sim_, lossy);
  std::vector<std::unique_ptr<Stamper>> members;
  const McastGroupId g(5);
  for (std::uint64_t node = 1; node <= 4; ++node) {
    members.push_back(std::make_unique<Stamper>(net, NodeId(node)));
    members.back()->join(g);
  }
  Stamper& sender = *members[1];  // a middle member: draws come before and after its own
  for (std::uint8_t i = 0; i < 16; ++i) {
    sender.multicast_to(g, Bytes{i});
    sim_.run_for(300);
  }
  sim_.run();

  EXPECT_TRUE(sender.arrivals.empty());
  // FNV-1a over every other member's (arrival time, byte) sequence.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  std::size_t delivered = 0;
  for (const auto& member : members) {
    if (member.get() == &sender) continue;
    mix(member->arrivals.size());
    for (const auto& [t, byte] : member->arrivals) {
      mix(static_cast<std::uint64_t>(t));
      mix(byte);
    }
    delivered += member->arrivals.size();
  }
  EXPECT_EQ(delivered, net_count("packets_delivered"));
  EXPECT_EQ(h, 2998693920648755239ULL);
  EXPECT_EQ(sim_.rng().next_u64(), 16602560883686975701ULL);  // the draw after all of them
  std::size_t sender_copy_drops = 0;
  for (const telemetry::TraceEvent& e : sim_.telemetry().tracer().events()) {
    if (e.kind == telemetry::TraceKind::kNetDrop && e.a == sender.id().value) ++sender_copy_drops;
  }
  EXPECT_EQ(sender_copy_drops, 5u);
  EXPECT_EQ(net_count("packets_dropped"), 18u);
}

TEST_F(NetworkTest, LeaveGroupStopsDelivery) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  const McastGroupId g(7);
  a.join(g);
  b.join(g);
  b.leave(g);
  a.multicast_to(g, to_bytes("mc"));
  sim_.run();
  EXPECT_TRUE(b.received.empty());
}

TEST_F(NetworkTest, MulticastToEmptyGroupIsNoop) {
  Recorder a(net_, NodeId(1));
  a.multicast_to(McastGroupId(9), to_bytes("mc"));
  sim_.run();
  EXPECT_EQ(net_count("packets_delivered"), 0u);
}

TEST_F(NetworkTest, GroupMembersListed) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  const McastGroupId g(3);
  EXPECT_TRUE(net_.group_members(g).empty());
  a.join(g);
  b.join(g);
  EXPECT_EQ(net_.group_members(g).size(), 2u);
}

TEST_F(NetworkTest, DetachOnDestruction) {
  {
    Recorder temp(net_, NodeId(5));
    EXPECT_TRUE(net_.attached(NodeId(5)));
  }
  EXPECT_FALSE(net_.attached(NodeId(5)));
}

TEST_F(NetworkTest, CutLinkDropsBothDirections) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  net_.set_link(NodeId(1), NodeId(2), false);
  a.send_to(NodeId(2), to_bytes("x"));
  b.send_to(NodeId(1), to_bytes("y"));
  sim_.run();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net_count("packets_dropped"), 2u);
  net_.set_link(NodeId(1), NodeId(2), true);
  a.send_to(NodeId(2), to_bytes("x"));
  sim_.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, PartitionCutsCrossTraffic) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  Recorder c(net_, NodeId(3));
  net_.partition({NodeId(1)}, {NodeId(2), NodeId(3)});
  a.send_to(NodeId(2), to_bytes("x"));
  b.send_to(NodeId(3), to_bytes("same-side"));
  sim_.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(c.received.size(), 1u);
  net_.heal_all_links();
  a.send_to(NodeId(2), to_bytes("x"));
  sim_.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, DropProbabilityLosesPackets) {
  NetConfig lossy = fast_config();
  lossy.drop_probability = 0.5;
  Network net(sim_, lossy);
  Recorder a(net, NodeId(1));
  Recorder b(net, NodeId(2));
  for (int i = 0; i < 1000; ++i) a.send_to(NodeId(2), to_bytes("x"));
  sim_.run();
  EXPECT_GT(b.received.size(), 300u);
  EXPECT_LT(b.received.size(), 700u);
}

TEST_F(NetworkTest, DuplicateProbabilityDuplicates) {
  NetConfig dupy = fast_config();
  dupy.duplicate_probability = 1.0;
  Network net(sim_, dupy);
  Recorder a(net, NodeId(1));
  Recorder b(net, NodeId(2));
  a.send_to(NodeId(2), to_bytes("x"));
  sim_.run();
  EXPECT_EQ(b.received.size(), 2u);
}

TEST_F(NetworkTest, InterceptorCanMutate) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  net_.set_interceptor(NodeId(1), [](const Packet& p) -> std::optional<BufView> {
    Bytes mutated = p.payload.clone_bytes();  // copy-on-write
    if (!mutated.empty()) mutated[0] ^= 0xff;
    return BufView(std::move(mutated));
  });
  a.send_to(NodeId(2), to_bytes("attack"));
  sim_.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_NE(to_string(b.received[0].payload), "attack");
}

TEST_F(NetworkTest, InterceptorCanDrop) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  net_.set_interceptor(NodeId(1),
                       [](const Packet&) -> std::optional<BufView> { return std::nullopt; });
  a.send_to(NodeId(2), to_bytes("x"));
  sim_.run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net_count("packets_dropped"), 1u);
}

TEST_F(NetworkTest, InterceptorClearRestores) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  net_.set_interceptor(NodeId(1),
                       [](const Packet&) -> std::optional<BufView> { return std::nullopt; });
  net_.set_interceptor(NodeId(1), nullptr);
  a.send_to(NodeId(2), to_bytes("x"));
  sim_.run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST_F(NetworkTest, StatsCountTraffic) {
  Recorder a(net_, NodeId(1));
  Recorder b(net_, NodeId(2));
  const McastGroupId g(1);
  a.join(g);
  b.join(g);
  a.send_to(NodeId(2), to_bytes("12345"));
  a.multicast_to(g, to_bytes("123"));
  sim_.run();
  EXPECT_EQ(net_count("unicasts_sent"), 1u);
  EXPECT_EQ(net_count("multicasts_sent"), 1u);
  EXPECT_EQ(net_count("packets_delivered"), 2u);  // 1 unicast + the mc copy to b
  EXPECT_EQ(net_count("bytes_delivered"), 5u + 3u);
  sim_.telemetry().metrics().reset();
  EXPECT_EQ(net_count("unicasts_sent"), 0u);
}

TEST_F(NetworkTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    NetConfig cfg = fast_config();
    cfg.drop_probability = 0.3;
    Network net(sim, cfg);
    Recorder a(net, NodeId(1));
    Recorder b(net, NodeId(2));
    for (int i = 0; i < 100; ++i) {
      a.send_to(NodeId(2), Bytes{static_cast<std::uint8_t>(i)});
    }
    sim.run();
    std::vector<std::uint8_t> seen;
    for (const auto& p : b.received) seen.push_back(p.payload[0]);
    return seen;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST_F(NetworkTest, TimerFiresOnProcess) {
  class TimerProc : public Process {
   public:
    TimerProc(Network& net) : Process(net, NodeId(1)) {
      set_timer(millis(1), [this] { fired = true; });
    }
    bool fired = false;

   protected:
    void on_packet(const Packet&) override {}
  };
  TimerProc p(net_);
  sim_.run();
  EXPECT_TRUE(p.fired);
}

TEST_F(NetworkTest, DestroyedProcessTakesItsArmedTimersWithIt) {
  // Crash-style teardown destroys a process with timers armed; they must
  // leave the queue with it, not fire into freed memory (ASAN would flag
  // the write). Other owners' events stay.
  class TimerProc : public Process {
   public:
    explicit TimerProc(Network& net) : Process(net, NodeId(1)) {
      for (int i = 1; i <= 3; ++i) set_timer(millis(i), [this] { ++fired; });
    }
    int fired = 0;

   protected:
    void on_packet(const Packet&) override {}
  };
  bool other_fired = false;
  sim_.schedule_after(millis(2), [&other_fired] { other_fired = true; });
  auto p = std::make_unique<TimerProc>(net_);
  EXPECT_EQ(sim_.pending_events(), 4u);
  p.reset();
  EXPECT_EQ(sim_.pending_events(), 1u);
  sim_.run();
  EXPECT_TRUE(other_fired);
}

}  // namespace
}  // namespace itdos::net
