#include "itdos/proxy.hpp"

#include <gtest/gtest.h>

#include "bft/messages.hpp"
#include "itdos/smiop_msg.hpp"

namespace itdos::core {
namespace {

net::Packet packet(Bytes payload) {
  return net::Packet{NodeId(1), NodeId(2), std::nullopt, std::move(payload)};
}

Bytes valid_bft_envelope() {
  bft::Frame frame(bft::MsgType::kPrepare, NodeId(3), to_bytes("body"),
                   bft::Frame::trailer_bound(0, false));
  return frame.seal_entries({}).clone_bytes();
}

Bytes valid_smiop_message() {
  DirectReplyMsg msg;
  msg.conn = ConnectionId(1);
  msg.rid = RequestId(1);
  msg.element = NodeId(5);
  msg.epoch = KeyEpoch(1);
  msg.sealed_giop = to_bytes("sealed");
  return msg.encode().clone_bytes();
}

constexpr DomainId kDomain{7};

/// A `proxy.<kDomain>.*` counter.
std::uint64_t proxy_count(const telemetry::MetricsRegistry& reg, std::string_view name) {
  return reg.counter_value(telemetry::metric_name("proxy", kDomain, name));
}

TEST(FirewallProxyTest, AdmitsBftEnvelopes) {
  telemetry::MetricsRegistry reg;
  FirewallProxy proxy(reg, kDomain);
  EXPECT_TRUE(proxy.admit(packet(valid_bft_envelope())));
  EXPECT_EQ(proxy_count(reg, "admitted"), 1u);
}

TEST(FirewallProxyTest, AdmitsSmiopMessages) {
  telemetry::MetricsRegistry reg;
  FirewallProxy proxy(reg, kDomain);
  EXPECT_TRUE(proxy.admit(packet(valid_smiop_message())));
}

TEST(FirewallProxyTest, DropsGarbage) {
  telemetry::MetricsRegistry reg;
  FirewallProxy proxy(reg, kDomain);
  EXPECT_FALSE(proxy.admit(packet(to_bytes("GET / HTTP/1.1"))));
  EXPECT_FALSE(proxy.admit(packet(Bytes{})));
  EXPECT_EQ(proxy_count(reg, "dropped_malformed"), 2u);
}

TEST(FirewallProxyTest, DropsOversize) {
  telemetry::MetricsRegistry reg;
  FirewallProxy::Options options;
  options.max_message_bytes = 100;
  FirewallProxy proxy(reg, kDomain, options);
  Bytes big = valid_bft_envelope();
  big.resize(200, 0);
  EXPECT_FALSE(proxy.admit(packet(big)));
  EXPECT_EQ(proxy_count(reg, "dropped_oversize"), 1u);
}

TEST(FirewallProxyTest, PolicyKnobsDisableFamilies) {
  telemetry::MetricsRegistry reg;
  FirewallProxy::Options options;
  options.allow_bft = false;
  FirewallProxy proxy(reg, kDomain, options);
  EXPECT_FALSE(proxy.admit(packet(valid_bft_envelope())));
  EXPECT_TRUE(proxy.admit(packet(valid_smiop_message())));
}

TEST(FirewallProxyTest, InstalledFilterGuardsDelivery) {
  net::Simulator sim(1);
  net::Network net(sim, net::NetConfig{10, 10, 0, 0});
  std::vector<BufView> received;
  net.attach(NodeId(2), [&](const net::Packet& p) { received.push_back(p.payload); });
  FirewallProxy proxy(sim.telemetry().metrics(), kDomain);
  proxy.protect(net, NodeId(2));

  net.send(NodeId(1), NodeId(2), to_bytes("junk"));
  net.send(NodeId(1), NodeId(2), valid_bft_envelope());
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], valid_bft_envelope());
  EXPECT_EQ(proxy_count(sim.telemetry().metrics(), "dropped_malformed"), 1u);
  EXPECT_EQ(proxy_count(sim.telemetry().metrics(), "admitted"), 1u);
}

TEST(FirewallProxyTest, ReleaseRestoresOpenDelivery) {
  net::Simulator sim(1);
  net::Network net(sim, net::NetConfig{10, 10, 0, 0});
  int received = 0;
  net.attach(NodeId(2), [&](const net::Packet&) { ++received; });
  FirewallProxy proxy(sim.telemetry().metrics(), kDomain);
  proxy.protect(net, NodeId(2));
  proxy.release(net, NodeId(2));
  net.send(NodeId(1), NodeId(2), to_bytes("junk"));
  sim.run();
  EXPECT_EQ(received, 1);
}

TEST(FirewallProxyTest, FilterSurvivesProxyDestruction) {
  net::Simulator sim(1);
  net::Network net(sim, net::NetConfig{10, 10, 0, 0});
  int received = 0;
  net.attach(NodeId(2), [&](const net::Packet&) { ++received; });
  {
    FirewallProxy proxy(sim.telemetry().metrics(), kDomain);
    proxy.protect(net, NodeId(2));
  }  // proxy destroyed; installed filter must remain safe and effective
  net.send(NodeId(1), NodeId(2), to_bytes("junk"));
  sim.run();
  EXPECT_EQ(received, 0);
  // The filter counts into the simulator's registry, not into the proxy.
  EXPECT_EQ(proxy_count(sim.telemetry().metrics(), "dropped_malformed"), 1u);
}

TEST(FirewallProxyTest, StatsSharedAcrossProtectedNodes) {
  net::Simulator sim(1);
  net::Network net(sim, net::NetConfig{10, 10, 0, 0});
  net.attach(NodeId(2), [](const net::Packet&) {});
  net.attach(NodeId(3), [](const net::Packet&) {});
  FirewallProxy proxy(sim.telemetry().metrics(), kDomain);
  proxy.protect(net, NodeId(2));
  proxy.protect(net, NodeId(3));
  net.send(NodeId(1), NodeId(2), to_bytes("junk"));
  net.send(NodeId(1), NodeId(3), to_bytes("junk"));
  sim.run();
  EXPECT_EQ(proxy_count(sim.telemetry().metrics(), "dropped_malformed"), 2u);
}

}  // namespace
}  // namespace itdos::core
