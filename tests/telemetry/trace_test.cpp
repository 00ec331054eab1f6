// Tracer unit tests plus the end-to-end determinism oracle: two ITDOS systems
// driven by an identical seeded workload must export byte-identical trace
// streams (src/telemetry/trace.hpp documents why this is load-bearing).
#include "telemetry/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "itdos/system.hpp"

namespace itdos::telemetry {
namespace {

TEST(TraceIdTest, ComposesConnectionAndRequest) {
  EXPECT_EQ(trace_id(ConnectionId(0), RequestId(0)), 0u);
  EXPECT_EQ(trace_id(ConnectionId(1), RequestId(1)), (1u << 24) | 1u);
  // Request ids wrap at 24 bits without bleeding into the connection field.
  EXPECT_EQ(trace_id(ConnectionId(2), RequestId((1ULL << 24) + 5)),
            (std::uint64_t{2} << 24) | 5u);
  // Distinct connections with the same rid produce distinct trace ids.
  EXPECT_NE(trace_id(ConnectionId(1), RequestId(7)),
            trace_id(ConnectionId(2), RequestId(7)));
}

TEST(TracerTest, RecordsAndQueries) {
  Tracer tracer;
  tracer.record(SimTime{1000}, TraceKind::kVoteOpen, NodeId(9), 42);
  tracer.record(SimTime{2000}, TraceKind::kBftCommit, NodeId(4), 42, 0, 1);
  tracer.record(SimTime{3000}, TraceKind::kBftCommit, NodeId(5), 7, 0, 1);
  ASSERT_EQ(tracer.events().size(), 3u);
  EXPECT_EQ(tracer.count(TraceKind::kBftCommit), 2u);
  EXPECT_EQ(tracer.count(TraceKind::kGmRekey), 0u);
  const auto scoped = tracer.for_trace(42);
  ASSERT_EQ(scoped.size(), 2u);
  EXPECT_EQ(scoped[0].kind, TraceKind::kVoteOpen);
  EXPECT_EQ(scoped[1].kind, TraceKind::kBftCommit);
  EXPECT_EQ(scoped[1].node, NodeId(4));
}

TEST(TracerTest, CapacityDropsAreCountedNotStored) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(SimTime{i}, TraceKind::kQueueAppend, NodeId(1),
                  0, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // The retained prefix is the OLDEST events — causality keeps its head.
  EXPECT_EQ(tracer.events().front().a, 0u);
  EXPECT_EQ(tracer.events().back().a, 3u);
}

TEST(TracerTest, ClearResetsEventsAndDropCount) {
  Tracer tracer(2);
  tracer.record(SimTime{1}, TraceKind::kNetDrop, NodeId(1), 0);
  tracer.record(SimTime{2}, TraceKind::kNetDrop, NodeId(1), 0);
  tracer.record(SimTime{3}, TraceKind::kNetDrop, NodeId(1), 0);
  EXPECT_EQ(tracer.dropped(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.record(SimTime{4}, TraceKind::kNetDrop, NodeId(2), 0);
  EXPECT_EQ(tracer.events().size(), 1u);
}

TEST(TracerTest, ReservesOnceAndHandsTheBlockToTheNextTracer) {
  const TraceEvent* block = nullptr;
  {
    Tracer first;
    ASSERT_GE(first.events().capacity(), Tracer::kReserveEvents);
    first.record(SimTime{1}, TraceKind::kNetDrop, NodeId(1), 0);
    block = first.events().data();
  }
  // Had `first` freed its block, an allocation of the same size would
  // likely take that address.
  std::vector<TraceEvent> bystander;
  bystander.reserve(Tracer::kReserveEvents);
  Tracer second;
  EXPECT_EQ(second.events().data(), block);  // no fresh 3 MiB allocation
  EXPECT_TRUE(second.events().empty());
  EXPECT_EQ(second.dropped(), 0u);
}

TEST(TracerTest, ExportJsonlFixedFieldOrder) {
  Tracer tracer;
  tracer.record(SimTime{3000}, TraceKind::kBftCommit, NodeId(4),
                trace_id(ConnectionId(1), RequestId(1)), 0, 1);
  tracer.record(SimTime{4500}, TraceKind::kSmiopReplyDecided, NodeId(9), 7, 1500);
  EXPECT_EQ(tracer.export_jsonl(),
            "{\"t\":3000,\"ev\":\"bft.commit\",\"node\":4,\"trace\":16777217,"
            "\"a\":0,\"b\":1}\n"
            "{\"t\":4500,\"ev\":\"smiop.reply_decided\",\"node\":9,\"trace\":7,"
            "\"a\":1500,\"b\":0}\n");
}

TEST(TraceKindNameTest, EveryKindHasADottedLayerName) {
  for (int k = 0; k <= static_cast<int>(TraceKind::kOracleViolation); ++k) {
    const std::string_view name = trace_kind_name(static_cast<TraceKind>(k));
    EXPECT_NE(name, "unknown") << k;
    EXPECT_NE(name.find('.'), std::string_view::npos) << name;
  }
}

// ---------------------------------------------------------------------------
// End-to-end determinism: the trace stream as a regression oracle.
// ---------------------------------------------------------------------------

class EchoServant : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:test/Echo:1.0"; }
  void dispatch(const std::string&, const cdr::Value& args, orb::ServerContext&,
                orb::ReplySinkPtr sink) override {
    std::int64_t sum = 0;
    for (const auto& v : args.elements()) sum += v.as_int64();
    sink->reply(cdr::Value::int64(sum));
  }
};

struct RunArtifacts {
  std::string trace_jsonl;
  std::map<std::string, std::uint64_t> counters;
  std::size_t event_count = 0;
};

RunArtifacts run_workload(std::uint64_t seed) {
  core::SystemOptions options;
  options.seed = seed;
  core::ItdosSystem system(options);
  const DomainId domain = system.add_domain(
      1, core::VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
        (void)adapter.activate_with_key(ObjectId(1),
                                        std::make_shared<EchoServant>());
      });
  core::ItdosClient& client = system.add_client();
  const orb::ObjectRef ref =
      system.object_ref(domain, ObjectId(1), "IDL:test/Echo:1.0");
  for (int i = 0; i < 8; ++i) {
    const Result<cdr::Value> result = system.invoke_sync(
        client, ref, "add",
        cdr::Value::sequence(
            {cdr::Value::int64(i), cdr::Value::int64(i * 10)}),
        seconds(20));
    EXPECT_TRUE(result.is_ok()) << "i=" << i;
    if (result.is_ok()) {
      EXPECT_EQ(result.value().as_int64(), i + i * 10) << "i=" << i;
    }
  }
  system.settle();

  RunArtifacts out;
  const telemetry::Hub& hub = system.sim().telemetry();
  out.trace_jsonl = hub.tracer().export_jsonl();
  out.event_count = hub.tracer().events().size();
  for (const auto& [name, counter] : hub.metrics().counters()) {
    out.counters[name] = counter.value();
  }
  return out;
}

TEST(TelemetryDeterminismTest, SameSeedProducesByteIdenticalTraceStreams) {
  const RunArtifacts first = run_workload(1234);
  const RunArtifacts second = run_workload(1234);

  // The run exercised the full stack, so the stream must be substantial:
  // ordering, execution, voting and connection setup all appear.
  EXPECT_GT(first.event_count, 50u);
  EXPECT_NE(first.trace_jsonl.find("\"ev\":\"bft.commit\""), std::string::npos);
  EXPECT_NE(first.trace_jsonl.find("\"ev\":\"vote.decide\""), std::string::npos);
  EXPECT_NE(first.trace_jsonl.find("\"ev\":\"smiop.connect_open\""),
            std::string::npos);

  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl)
      << "same-seed runs diverged: the simulation is no longer deterministic";
  EXPECT_EQ(first.counters, second.counters);
}

TEST(TelemetryDeterminismTest, DifferentSeedsProduceDifferentTimings) {
  // Not a hard requirement of the design, but a sanity check that the trace
  // actually reflects simulated timing rather than a constant script.
  const RunArtifacts a = run_workload(1);
  const RunArtifacts b = run_workload(2);
  EXPECT_FALSE(a.trace_jsonl.empty());
  EXPECT_FALSE(b.trace_jsonl.empty());
  EXPECT_NE(a.trace_jsonl, b.trace_jsonl);
}

}  // namespace
}  // namespace itdos::telemetry
