#include "bft/config.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

namespace itdos::bft {
namespace {

BftConfig valid_config(int f = 1) {
  BftConfig config;
  config.f = f;
  config.group = McastGroupId(1);
  for (int i = 0; i < 3 * f + 1; ++i) {
    config.replicas.push_back(NodeId(static_cast<std::uint64_t>(i + 1)));
  }
  return config;
}

TEST(BftConfigTest, ValidConfigPasses) {
  EXPECT_TRUE(valid_config(1).validate().is_ok());
  EXPECT_TRUE(valid_config(3).validate().is_ok());
}

TEST(BftConfigTest, RejectsZeroF) {
  BftConfig config = valid_config(1);
  config.f = 0;
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(BftConfigTest, RejectsWrongReplicaCount) {
  BftConfig config = valid_config(1);
  config.replicas.pop_back();  // 3 != 3f+1
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(BftConfigTest, RejectsDuplicateReplicas) {
  BftConfig config = valid_config(1);
  config.replicas[3] = config.replicas[0];
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(BftConfigTest, RejectsBadCheckpointInterval) {
  BftConfig config = valid_config(1);
  config.checkpoint_interval = 0;
  EXPECT_FALSE(config.validate().is_ok());
}

TEST(BftConfigTest, QuorumIsTwoFPlusOne) {
  EXPECT_EQ(valid_config(1).quorum(), 3);
  EXPECT_EQ(valid_config(2).quorum(), 5);
}

TEST(BftConfigTest, RankAndMembership) {
  const BftConfig config = valid_config(1);
  EXPECT_EQ(config.rank_of(NodeId(1)), 0);
  EXPECT_EQ(config.rank_of(NodeId(4)), 3);
  EXPECT_EQ(config.rank_of(NodeId(99)), -1);
  EXPECT_TRUE(config.is_replica(NodeId(2)));
  EXPECT_FALSE(config.is_replica(NodeId(99)));
}

TEST(BftConfigTest, PrimaryRotatesRoundRobin) {
  const BftConfig config = valid_config(1);
  EXPECT_EQ(config.primary_for(ViewId(0)), NodeId(1));
  EXPECT_EQ(config.primary_for(ViewId(1)), NodeId(2));
  EXPECT_EQ(config.primary_for(ViewId(4)), NodeId(1));  // wraps
  EXPECT_EQ(config.primary_for(ViewId(7)), NodeId(4));
}

TEST(BftConfigTest, WatermarkWindowIsTwoCheckpoints) {
  BftConfig config = valid_config(1);
  config.checkpoint_interval = 10;
  EXPECT_EQ(config.watermark_window(), 20);
}

TEST(SessionKeysTest, PairwiseKeysAreSymmetric) {
  SessionKeys keys(to_bytes("master-secret"));
  EXPECT_EQ(keys.key_for(NodeId(1), NodeId(2)), keys.key_for(NodeId(2), NodeId(1)));
}

TEST(SessionKeysTest, DistinctPairsDistinctKeys) {
  SessionKeys keys(to_bytes("master-secret"));
  EXPECT_NE(keys.key_for(NodeId(1), NodeId(2)), keys.key_for(NodeId(1), NodeId(3)));
  EXPECT_NE(keys.key_for(NodeId(1), NodeId(2)), keys.key_for(NodeId(2), NodeId(3)));
}

TEST(SessionKeysTest, DistinctMastersDistinctKeys) {
  SessionKeys a(to_bytes("master-a"));
  SessionKeys b(to_bytes("master-b"));
  EXPECT_NE(a.key_for(NodeId(1), NodeId(2)), b.key_for(NodeId(1), NodeId(2)));
}

/// `data` as the one segment SessionKeys::verify takes it in.
std::array<ByteView, 1> whole(ByteView data) { return {data}; }

TEST(SessionKeysTest, TagVerifyRoundTrip) {
  SessionKeys keys(to_bytes("master"));
  const Bytes msg = to_bytes("pre-prepare body");
  const crypto::MacTag tag = keys.tag(NodeId(1), NodeId(2), msg);
  EXPECT_TRUE(keys.verify(NodeId(2), NodeId(1), whole(msg), tag));  // order-free
  EXPECT_FALSE(keys.verify(NodeId(1), NodeId(3), whole(msg), tag));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(keys.verify(NodeId(1), NodeId(2), whole(tampered), tag));
}

TEST(SessionKeysTest, CachedTagMatchesDerivedKeyInBothOrders) {
  SessionKeys keys(to_bytes("master"));
  const Bytes msg = to_bytes("commit body");
  // AES-256-CMAC under HMAC-SHA256(key_for(3, 7), "bft.mac"), computed with
  // Python's hmac and cryptography's CMAC.
  crypto::MacTag expected{};
  const Bytes pinned = hex_decode("cd2e071a1900607eda6c70b376ab83df");
  std::copy(pinned.begin(), pinned.end(), expected.begin());
  EXPECT_EQ(keys.tag(NodeId(7), NodeId(3), msg), expected);  // fills the cache
  EXPECT_EQ(keys.tag(NodeId(3), NodeId(7), msg), expected);  // served from it
  EXPECT_EQ(keys.cached_pairs(), 1u);
  EXPECT_TRUE(keys.verify(NodeId(3), NodeId(7), whole(msg), expected));
  EXPECT_TRUE(keys.verify(NodeId(7), NodeId(3), whole(msg), expected));

  // verify() alone fills the cache too, in either order, once the MAC checks.
  SessionKeys fresh(to_bytes("master"));
  EXPECT_TRUE(fresh.verify(NodeId(7), NodeId(3), whole(msg), expected));
  EXPECT_EQ(fresh.cached_pairs(), 1u);
  EXPECT_EQ(fresh.tag(NodeId(3), NodeId(7), msg), expected);
  EXPECT_EQ(fresh.cached_pairs(), 1u);
}

TEST(SessionKeysTest, FailedVerifyLeavesCacheUnchanged) {
  SessionKeys keys(to_bytes("master"));
  const Bytes msg = to_bytes("prepare body");
  const crypto::MacTag genuine = keys.tag(NodeId(1), NodeId(2), msg);
  ASSERT_EQ(keys.cached_pairs(), 1u);
  // A sender spoofing node ids: its tags verify under none of those pairs.
  for (std::uint64_t spoofed = 100; spoofed < 120; ++spoofed) {
    EXPECT_FALSE(keys.verify(NodeId(spoofed), NodeId(2), whole(msg), genuine));
  }
  EXPECT_EQ(keys.cached_pairs(), 1u);
  crypto::MacTag forged = genuine;
  forged[0] ^= 1;
  EXPECT_FALSE(keys.verify(NodeId(1), NodeId(2), whole(msg), forged));
  EXPECT_TRUE(keys.verify(NodeId(2), NodeId(1), whole(msg), genuine));
  EXPECT_EQ(keys.cached_pairs(), 1u);
}

}  // namespace
}  // namespace itdos::bft
