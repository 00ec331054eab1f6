// Large messages (§4): every sealed request is one ordered queue entry,
// whatever its size; the seal spans the whole payload end to end.
#include <gtest/gtest.h>

#include "bft/client.hpp"
#include "itdos/system.hpp"

namespace itdos::core {
namespace {

using cdr::Value;

/// FNV-1a over a string: the servant's digest and the test's expectation.
std::int64_t fnv1a(const std::string& blob) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : blob) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<std::int64_t>(h);
}

class BlobServant : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:itdos/Blob:1.0"; }
  void dispatch(const std::string& operation, const Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    const std::string& blob = arguments.elements()[0].as_string();
    if (operation == "echo") {
      sink->reply(Value::string(blob));
    } else if (operation == "size") {
      sink->reply(Value::int64(static_cast<std::int64_t>(blob.size())));
    } else if (operation == "digest") {
      sink->reply(Value::int64(fnv1a(blob)));
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown op"));
    }
  }
};

/// A blob whose bytes all differ from their neighbours', so a reordered,
/// dropped or duplicated span cannot go unnoticed.
std::string patterned(std::size_t size) {
  std::string blob(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    blob[i] = static_cast<char>('a' + (i * 7 + i / 251) % 26);
  }
  return blob;
}

DomainElement::ServantInstaller blob_installer() {
  return [](orb::ObjectAdapter& adapter, int) {
    (void)adapter.activate_with_key(ObjectId(1), std::make_shared<BlobServant>());
  };
}

class LargeMessageTest : public ::testing::Test {
 protected:
  LargeMessageTest() {
    system_ = std::make_unique<ItdosSystem>(SystemOptions{});
    domain_ = system_->add_domain(1, VotePolicy::exact(), blob_installer());
    client_ = &system_->add_client();
    ref_ = system_->object_ref(domain_, ObjectId(1), "IDL:itdos/Blob:1.0");
  }

  Result<Value> send_blob(const std::string& op, const std::string& blob) {
    return system_->invoke_sync(*client_, ref_, op, Value::sequence({Value::string(blob)}),
                                seconds(30));
  }

  /// Each element's queue: entries ordered so far.
  std::vector<std::uint64_t> queue_lengths() {
    std::vector<std::uint64_t> lengths;
    for (int rank = 0; rank < 4; ++rank) {
      lengths.push_back(system_->element(domain_, rank).queue().next_index());
    }
    return lengths;
  }

  std::unique_ptr<ItdosSystem> system_;
  DomainId domain_;
  ItdosClient* client_ = nullptr;
  orb::ObjectRef ref_;
};

TEST_F(LargeMessageTest, LargeEchoIsOneOrderedEntryPerElement) {
  ASSERT_TRUE(send_blob("size", "warm-up").is_ok());
  system_->settle();
  const std::vector<std::uint64_t> before = queue_lengths();
  const std::string blob = patterned(256 * 1024);
  const Result<Value> result = send_blob("echo", blob);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(result.value().as_string() == blob) << "256 KiB echo is not byte-exact";
  system_->settle();
  const std::vector<std::uint64_t> after = queue_lengths();
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(after[rank], before[rank] + 1) << "rank " << rank;
  }
}

TEST_F(LargeMessageTest, PayloadIntegrity) {
  // Every heterogeneous element digests the same bytes the client sent.
  const std::string small = patterned(100);
  const std::string large = patterned(60000);
  const Result<Value> small_digest = send_blob("digest", small);
  const Result<Value> large_digest = send_blob("digest", large);
  ASSERT_TRUE(small_digest.is_ok());
  ASSERT_TRUE(large_digest.is_ok());
  EXPECT_EQ(small_digest.value().as_int64(), fnv1a(small));
  EXPECT_EQ(large_digest.value().as_int64(), fnv1a(large));
}

TEST_F(LargeMessageTest, InterleavedLargeAndSmallRequests) {
  const std::vector<std::uint64_t> before = queue_lengths();
  for (const std::size_t size : {20000, 10, 30000}) {
    const Result<Value> result = send_blob("size", patterned(size));
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    EXPECT_EQ(result.value().as_int64(), static_cast<std::int64_t>(size));
  }
  system_->settle();
  const std::vector<std::uint64_t> after = queue_lengths();
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(after[rank], before[rank] + 3) << "rank " << rank;
  }
}

TEST_F(LargeMessageTest, OldFragmentKindDiscardedAtEveryElement) {
  // Kind byte 4 once marked a fragment of a large request. A client that
  // still orders one gets the same rejection from every element, and no
  // element's queue takes it.
  ASSERT_TRUE(send_blob("size", "warm-up").is_ok());
  system_->settle();
  const std::vector<std::uint64_t> before = queue_lengths();
  bft::Client rogue(system_->network(), NodeId(777777),
                    system_->directory().find_domain(domain_)->make_bft_config(
                        system_->directory().timing()),
                    system_->keys());
  OrderedMsg shape;
  shape.conn = ConnectionId(1);
  shape.rid = RequestId(50);
  shape.origin = client_->smiop_node();
  shape.epoch = KeyEpoch(1);
  shape.sealed_giop = to_bytes("junk");
  Bytes entry = shape.encode().clone_bytes();
  entry[0] = 4;
  std::optional<Result<Bytes>> reply;
  rogue.invoke(BufView(std::move(entry)), [&reply](Result<Bytes> r) { reply = std::move(r); });
  system_->settle();
  ASSERT_TRUE(reply.has_value());
  ASSERT_TRUE(reply->is_ok()) << reply->status().to_string();
  EXPECT_EQ(to_string(reply->value()), "ITDOS-REJECT");
  EXPECT_EQ(queue_lengths(), before);

  // Service is unaffected.
  const Result<Value> after = send_blob("size", patterned(20000));
  ASSERT_TRUE(after.is_ok()) << after.status().to_string();
  EXPECT_EQ(after.value().as_int64(), 20000);
}

TEST(LargeMessageDeterminism, SameSeedTraceIsByteStable) {
  // Two same-seed runs of a large-message invocation export byte-identical
  // traces: no address- or allocation-order dependence on the large path.
  auto run_once = [] {
    SystemOptions options;
    options.seed = 77;
    ItdosSystem system(options);
    const DomainId domain = system.add_domain(1, VotePolicy::exact(), blob_installer());
    ItdosClient& client = system.add_client();
    const orb::ObjectRef ref = system.object_ref(domain, ObjectId(1), "IDL:itdos/Blob:1.0");
    const Result<Value> result = system.invoke_sync(
        client, ref, "size", Value::sequence({Value::string(patterned(40000))}), seconds(30));
    EXPECT_TRUE(result.is_ok());
    return system.sim().telemetry().tracer().export_jsonl();
  };
  const std::string first = run_once();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run_once()) << "same-seed large-message runs diverged";
}

}  // namespace
}  // namespace itdos::core
