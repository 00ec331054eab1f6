// Large-message fragmentation (§4): splitting, ordered reassembly,
// end-to-end seals, hostile fragments.
#include <gtest/gtest.h>

#include "bft/client.hpp"
#include "itdos/system.hpp"

namespace itdos::core {
namespace {

using cdr::Value;

class BlobServant : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:itdos/Blob:1.0"; }
  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "size") {
      sink->reply(Value::int64(
          static_cast<std::int64_t>(arguments.elements()[0].as_string().size())));
    } else if (operation == "digest") {
      const std::string& blob = arguments.elements()[0].as_string();
      std::uint64_t h = 1469598103934665603ULL;
      for (char c : blob) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 1099511628211ULL;
      }
      sink->reply(Value::int64(static_cast<std::int64_t>(h)));
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown op"));
    }
  }
};

class FragmentTest : public ::testing::Test {
 protected:
  FragmentTest() {
    SystemOptions options;
    options.timing.max_entry_bytes = 4096;  // small threshold: force splits
    system_ = std::make_unique<ItdosSystem>(options);
    domain_ = system_->add_domain(1, VotePolicy::exact(),
                                  [](orb::ObjectAdapter& adapter, int) {
                                    (void)adapter.activate_with_key(
                                        ObjectId(1), std::make_shared<BlobServant>());
                                  });
    client_ = &system_->add_client();
    ref_ = system_->object_ref(domain_, ObjectId(1), "IDL:itdos/Blob:1.0");
  }

  Result<Value> send_blob(const std::string& op, std::size_t size, char fill = 'x') {
    return system_->invoke_sync(*client_, ref_, op,
                                Value::sequence({Value::string(std::string(size, fill))}),
                                seconds(30));
  }

  /// An `element.*` counter of the element at `rank`.
  std::uint64_t element_count(int rank, std::string_view name) {
    return system_->sim().telemetry().metrics().counter_value(
        telemetry::metric_name("element", system_->element(domain_, rank).smiop_node(), name));
  }

  /// An `smiop.*` counter of the client's party.
  std::uint64_t client_count(std::string_view name) {
    return system_->sim().telemetry().metrics().counter_value(
        telemetry::metric_name("smiop", client_->smiop_node(), name));
  }

  std::unique_ptr<ItdosSystem> system_;
  DomainId domain_;
  ItdosClient* client_ = nullptr;
  orb::ObjectRef ref_;
};

TEST_F(FragmentTest, SmallRequestNotFragmented) {
  ASSERT_TRUE(send_blob("size", 100).is_ok());
  EXPECT_EQ(client_count("fragmented_requests"), 0u);
  EXPECT_EQ(element_count(0, "requests_reassembled"), 0u);
}

TEST_F(FragmentTest, LargeRequestFragmentsAndReassembles) {
  const Result<Value> result = send_blob("size", 50000);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().as_int64(), 50000);
  EXPECT_EQ(client_count("fragmented_requests"), 1u);
  system_->settle();
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(element_count(rank, "requests_reassembled"), 1u)
        << "rank " << rank;
  }
}

TEST_F(FragmentTest, PayloadIntegrityAcrossFragmentation) {
  // The servant digests the blob; all heterogeneous elements must agree —
  // any reordering/corruption in reassembly would break the seal or digest.
  const Result<Value> small = send_blob("digest", 100, 'a');
  const Result<Value> large = send_blob("digest", 60000, 'a');
  ASSERT_TRUE(small.is_ok());
  ASSERT_TRUE(large.is_ok());
  EXPECT_NE(small.value().as_int64(), 0);
  EXPECT_NE(large.value().as_int64(), 0);
}

TEST_F(FragmentTest, InterleavedLargeAndSmallRequests) {
  ASSERT_TRUE(send_blob("size", 20000).is_ok());
  ASSERT_TRUE(send_blob("size", 10).is_ok());
  ASSERT_TRUE(send_blob("size", 30000).is_ok());
  EXPECT_EQ(client_count("fragmented_requests"), 2u);
}

TEST_F(FragmentTest, HostileFragmentsDiscardedWithoutDesync) {
  ASSERT_TRUE(send_blob("size", 10).is_ok());
  bft::Client rogue(system_->network(), NodeId(777777),
                    system_->directory().find_domain(domain_)->make_bft_config(
                        system_->directory().timing()),
                    system_->keys());
  // Orphan fragment with an inconsistent total; a duplicate index; a
  // fragment for a stale rid.
  FragmentMsg hostile;
  hostile.conn = ConnectionId(1);
  hostile.rid = RequestId(50);
  hostile.origin = client_->smiop_node();
  hostile.epoch = KeyEpoch(1);
  hostile.index = 0;
  hostile.total = 4;
  hostile.chunk = to_bytes("junk");
  rogue.invoke(hostile.encode(), [](Result<Bytes>) {});
  hostile.total = 7;  // inconsistent with the buffered total
  hostile.index = 1;
  rogue.invoke(hostile.encode(), [](Result<Bytes>) {});
  hostile.rid = RequestId(1);  // stale
  hostile.total = 2;
  hostile.index = 0;
  rogue.invoke(hostile.encode(), [](Result<Bytes>) {});
  system_->settle();
  // Service unaffected; every element discarded identically.
  const Result<Value> after = send_blob("size", 20000);
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_EQ(after.value().as_int64(), 20000);
  const std::uint64_t d0 = element_count(0, "entries_discarded");
  EXPECT_GE(d0, 2u);
}

TEST(FragmentDeterminism, SameSeedLargeMessageTraceIsByteStable) {
  // Two same-seed runs of a fragmented large-message invocation must export
  // byte-identical traces: chunk allocation, view slicing and fragment
  // reassembly introduce no address- or allocation-order dependence.
  auto run_once = [] {
    SystemOptions options;
    options.seed = 77;
    options.timing.max_entry_bytes = 4096;
    ItdosSystem system(options);
    const DomainId domain = system.add_domain(
        1, VotePolicy::exact(), [](orb::ObjectAdapter& adapter, int) {
          (void)adapter.activate_with_key(ObjectId(1),
                                          std::make_shared<BlobServant>());
        });
    ItdosClient& client = system.add_client();
    const orb::ObjectRef ref =
        system.object_ref(domain, ObjectId(1), "IDL:itdos/Blob:1.0");
    const Result<Value> result = system.invoke_sync(
        client, ref, "size",
        Value::sequence({Value::string(std::string(20000, 'z'))}), seconds(30));
    EXPECT_TRUE(result.is_ok());
    return system.sim().telemetry().tracer().export_jsonl();
  };
  const std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_once()) << "same-seed fragmented runs diverged";
}

TEST(FragmentMsgTest, RoundTrip) {
  FragmentMsg msg;
  msg.conn = ConnectionId(3);
  msg.rid = RequestId(9);
  msg.origin = NodeId(55);
  msg.origin_domain = DomainId(0);
  msg.epoch = KeyEpoch(2);
  msg.index = 1;
  msg.total = 3;
  msg.chunk = to_bytes("chunk-bytes");
  EXPECT_EQ(FragmentMsg::decode(msg.encode()).value(), msg);
  EXPECT_EQ(queue_entry_kind(msg.encode()).value(), QueueEntryKind::kFragment);
}

TEST(FragmentMsgTest, RejectsBadIndices) {
  FragmentMsg msg;
  msg.conn = ConnectionId(1);
  msg.rid = RequestId(1);
  msg.origin = NodeId(1);
  msg.epoch = KeyEpoch(1);
  msg.chunk = to_bytes("c");
  msg.index = 0;
  msg.total = 0;  // zero total
  EXPECT_FALSE(FragmentMsg::decode(msg.encode()).is_ok());
  msg.total = 2;
  msg.index = 2;  // index >= total
  EXPECT_FALSE(FragmentMsg::decode(msg.encode()).is_ok());
  msg.index = 0;
  msg.total = kMaxFragments + 1;  // over cap
  EXPECT_FALSE(FragmentMsg::decode(msg.encode()).is_ok());
}

TEST(ObjectRefTest, CorbalocRoundTrip) {
  orb::ObjectRef ref;
  ref.domain = DomainId(12);
  ref.key = ObjectId(7);
  ref.interface_name = "IDL:bank/Ledger:1.0";
  const auto parsed = orb::ObjectRef::from_string(ref.to_string());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), ref);
}

TEST(ObjectRefTest, CorbalocRejectsMalformed) {
  EXPECT_FALSE(orb::ObjectRef::from_string("").is_ok());
  EXPECT_FALSE(orb::ObjectRef::from_string("corbaloc:iiop:1/2#x").is_ok());
  EXPECT_FALSE(orb::ObjectRef::from_string("corbaloc:itdos:12#x").is_ok());    // no '/'
  EXPECT_FALSE(orb::ObjectRef::from_string("corbaloc:itdos:12/7").is_ok());    // no '#'
  EXPECT_FALSE(orb::ObjectRef::from_string("corbaloc:itdos:ab/7#x").is_ok());  // bad num
  EXPECT_FALSE(orb::ObjectRef::from_string("corbaloc:itdos:12/7#").is_ok());   // empty if
}

}  // namespace
}  // namespace itdos::core
