#include "crypto/dprf.hpp"

#include <gtest/gtest.h>

#include <set>

namespace itdos::crypto {
namespace {

DprfParams params_for(int f) { return DprfParams{3 * f + 1, f}; }

class DprfTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    params_ = params_for(GetParam());
    Rng rng(1000 + GetParam());
    keys_ = dprf_deal(params_, rng);
  }

  DprfParams params_;
  std::vector<DprfElementKeys> keys_;
};

TEST_P(DprfTest, ParamsValidate) { EXPECT_TRUE(params_.validate().is_ok()); }

TEST_P(DprfTest, SubsetEnumerationCountAndSize) {
  const auto subsets = params_.subsets();
  // C(n, f) subsets of size n-f.
  std::size_t expected = 1;
  for (int i = 0; i < params_.f; ++i) {
    expected = expected * (params_.n - i) / (i + 1);
  }
  EXPECT_EQ(subsets.size(), expected);
  for (auto mask : subsets) {
    EXPECT_EQ(std::popcount(mask), params_.subset_size());
  }
}

TEST_P(DprfTest, EachElementHoldsItsSubsetsOnly) {
  const auto subsets = params_.subsets();
  for (const auto& ek : keys_) {
    for (std::size_t id = 0; id < subsets.size(); ++id) {
      const bool member = subsets[id] & (1u << ek.index);
      EXPECT_EQ(ek.subkeys.contains(static_cast<int>(id)), member);
    }
  }
}

TEST_P(DprfTest, AllCorrectSharesCombineToSameKey) {
  const Bytes input = to_bytes("conn:42|epoch:1");
  DprfCombiner combiner(params_, input);
  for (const auto& ek : keys_) {
    DprfElement element(params_, ek);
    ASSERT_TRUE(combiner.add_share(element.evaluate(input)).is_ok());
  }
  ASSERT_TRUE(combiner.ready());
  const auto key = combiner.combine();
  ASSERT_TRUE(key.is_ok());
  EXPECT_EQ(key.value(), dprf_eval_master(params_, keys_, input));
  EXPECT_TRUE(combiner.misbehaving().empty());
}

TEST_P(DprfTest, ReadyAfterAnyTwoFPlusOneShares) {
  // With no liars, any 2f+1 elements resolve every subset (each subset has
  // >= f+1 of them as members).
  const Bytes input = to_bytes("x");
  const int quorum = 2 * params_.f + 1;
  // Try a few different quorum compositions.
  for (int start = 0; start < params_.n; ++start) {
    DprfCombiner combiner(params_, input);
    for (int k = 0; k < quorum; ++k) {
      const int idx = (start + k) % params_.n;
      DprfElement element(params_, keys_[idx]);
      ASSERT_TRUE(combiner.add_share(element.evaluate(input)).is_ok());
    }
    EXPECT_TRUE(combiner.ready()) << "start=" << start;
    EXPECT_EQ(combiner.combine().value(), dprf_eval_master(params_, keys_, input));
  }
}

TEST_P(DprfTest, NotReadyWithOnlyFShares) {
  const Bytes input = to_bytes("x");
  DprfCombiner combiner(params_, input);
  for (int i = 0; i < params_.f; ++i) {
    DprfElement element(params_, keys_[i]);
    ASSERT_TRUE(combiner.add_share(element.evaluate(input)).is_ok());
  }
  EXPECT_FALSE(combiner.ready());
  EXPECT_EQ(combiner.combine().status().code(), Errc::kUnavailable);
}

TEST_P(DprfTest, SecrecyFColludersMissASubkey) {
  // Any coalition of f elements misses at least one sub-key: their pooled
  // sub-key ids do not cover all subsets.
  const auto subsets = params_.subsets();
  // Coalition = first f elements.
  std::set<int> covered;
  for (int i = 0; i < params_.f; ++i) {
    for (const auto& [id, k] : keys_[i].subkeys) covered.insert(id);
  }
  EXPECT_LT(covered.size(), subsets.size());
}

TEST_P(DprfTest, DistinctInputsDistinctKeys) {
  EXPECT_NE(dprf_eval_master(params_, keys_, to_bytes("input-a")),
            dprf_eval_master(params_, keys_, to_bytes("input-b")));
}

TEST_P(DprfTest, LiarIsOutvotedAndFlagged) {
  const Bytes input = to_bytes("keyed-input");
  // Element 0 lies about every evaluation.
  DprfCombiner combiner(params_, input);
  DprfShare lie = DprfElement(params_, keys_[0]).evaluate(input);
  for (auto& [id, digest] : lie.evaluations) digest[0] ^= 0xff;
  ASSERT_TRUE(combiner.add_share(lie).is_ok());
  for (int i = 1; i < params_.n; ++i) {
    ASSERT_TRUE(combiner.add_share(DprfElement(params_, keys_[i]).evaluate(input)).is_ok());
  }
  ASSERT_TRUE(combiner.ready());
  EXPECT_EQ(combiner.combine().value(), dprf_eval_master(params_, keys_, input));
  EXPECT_EQ(combiner.misbehaving(), std::vector<int>{0});
}

TEST_P(DprfTest, FColludingLiarsCannotForceWrongKey) {
  const Bytes input = to_bytes("contested");
  DprfCombiner combiner(params_, input);
  // f colluders send identical fabricated evaluations.
  for (int i = 0; i < params_.f; ++i) {
    DprfShare lie = DprfElement(params_, keys_[i]).evaluate(input);
    for (auto& [id, digest] : lie.evaluations) digest.fill(0xab);
    ASSERT_TRUE(combiner.add_share(lie).is_ok());
  }
  for (int i = params_.f; i < params_.n; ++i) {
    ASSERT_TRUE(combiner.add_share(DprfElement(params_, keys_[i]).evaluate(input)).is_ok());
  }
  ASSERT_TRUE(combiner.ready());
  // f identical lies never reach the f+1 acceptance threshold.
  EXPECT_EQ(combiner.combine().value(), dprf_eval_master(params_, keys_, input));
  const auto bad = combiner.misbehaving();
  EXPECT_EQ(static_cast<int>(bad.size()), params_.f);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, DprfTest, ::testing::Values(1, 2, 3),
                         [](const auto& info) {
                           return "f" + std::to_string(info.param);
                         });

TEST(DprfShareTest, EncodeDecodeRoundTrip) {
  const DprfParams params = params_for(1);
  Rng rng(5);
  const auto keys = dprf_deal(params, rng);
  const DprfShare share = DprfElement(params, keys[2]).evaluate(to_bytes("input"));
  const BufView wire = share.encode();
  const auto decoded = DprfShare::decode(wire);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().element, share.element);
  EXPECT_EQ(decoded.value().evaluations, share.evaluations);
}

TEST(DprfShareTest, DecodeRejectsTruncation) {
  const DprfParams params = params_for(1);
  Rng rng(5);
  const auto keys = dprf_deal(params, rng);
  const BufView wire = DprfElement(params, keys[0]).evaluate(to_bytes("i")).encode();
  for (std::size_t cut : {0u, 3u, 10u}) {
    const ByteView truncated(wire.data(), std::min(cut, wire.size()));
    if (truncated.size() == wire.size()) continue;
    EXPECT_FALSE(DprfShare::decode(truncated).is_ok());
  }
}

TEST(DprfCombinerTest, RejectsOutOfRangeElement) {
  const DprfParams params = params_for(1);
  DprfCombiner combiner(params, to_bytes("i"));
  DprfShare share;
  share.element = 99;
  EXPECT_EQ(combiner.add_share(share).code(), Errc::kMalformedMessage);
}

TEST(DprfCombinerTest, RejectsEvaluationOutsideMembership) {
  const DprfParams params = params_for(1);
  Rng rng(5);
  const auto keys = dprf_deal(params, rng);
  const auto subsets = params.subsets();
  // Find a subset element 0 is NOT in.
  int foreign = -1;
  for (std::size_t id = 0; id < subsets.size(); ++id) {
    if (!(subsets[id] & 1u)) {
      foreign = static_cast<int>(id);
      break;
    }
  }
  ASSERT_GE(foreign, 0);
  DprfShare share;
  share.element = 0;
  share.evaluations[foreign] = Digest{};
  DprfCombiner combiner(params, to_bytes("i"));
  EXPECT_EQ(combiner.add_share(share).code(), Errc::kMalformedMessage);
}

TEST(DprfCombinerTest, DuplicateShareIgnored) {
  const DprfParams params = params_for(1);
  Rng rng(5);
  const auto keys = dprf_deal(params, rng);
  const Bytes input = to_bytes("i");
  DprfCombiner combiner(params, input);
  const DprfShare share = DprfElement(params, keys[0]).evaluate(input);
  ASSERT_TRUE(combiner.add_share(share).is_ok());
  ASSERT_TRUE(combiner.add_share(share).is_ok());
  EXPECT_EQ(combiner.shares_received(), 1);
}

TEST(CoinTest, CommitRevealHappyPath) {
  CommitRevealCoin coin(4);
  Rng rng(9);
  std::vector<Bytes> secrets;
  for (int i = 0; i < 4; ++i) {
    secrets.push_back(rng.next_bytes(16));
    ASSERT_TRUE(coin.commit(i, sha256(ByteView(secrets[i]))).is_ok());
  }
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(coin.reveal(i, secrets[i]).is_ok());
  }
  const auto out = coin.output(2);
  ASSERT_TRUE(out.is_ok());
  EXPECT_EQ(out.value().size(), kDigestSize);
}

TEST(CoinTest, RevealMustMatchCommitment) {
  CommitRevealCoin coin(2);
  Rng rng(9);
  const Bytes secret = rng.next_bytes(16);
  ASSERT_TRUE(coin.commit(0, sha256(ByteView(secret))).is_ok());
  Bytes wrong = secret;
  wrong[0] ^= 1;
  EXPECT_EQ(coin.reveal(0, wrong).code(), Errc::kAuthFailure);
}

TEST(CoinTest, RevealWithoutCommitRejected) {
  CommitRevealCoin coin(2);
  EXPECT_EQ(coin.reveal(0, to_bytes("x")).code(), Errc::kFailedPrecondition);
}

TEST(CoinTest, DoubleCommitRejected) {
  CommitRevealCoin coin(2);
  const Digest c = sha256("a");
  ASSERT_TRUE(coin.commit(0, c).is_ok());
  EXPECT_EQ(coin.commit(0, c).code(), Errc::kAlreadyExists);
}

TEST(CoinTest, OutputUnavailableBelowThreshold) {
  CommitRevealCoin coin(4);
  Rng rng(9);
  const Bytes secret = rng.next_bytes(16);
  ASSERT_TRUE(coin.commit(0, sha256(ByteView(secret))).is_ok());
  ASSERT_TRUE(coin.reveal(0, secret).is_ok());
  EXPECT_EQ(coin.output(2).status().code(), Errc::kUnavailable);
  EXPECT_TRUE(coin.output(1).is_ok());
}

TEST(CoinTest, AnyHonestContributionChangesOutput) {
  // Two runs differing only in one participant's secret produce different
  // coins — an f-coalition cannot fix the output.
  auto run = [](std::uint64_t seed_for_element_3) {
    CommitRevealCoin coin(4);
    Rng rng(100);
    for (int i = 0; i < 4; ++i) {
      Bytes secret = (i == 3) ? Rng(seed_for_element_3).next_bytes(16)
                              : Rng(200 + i).next_bytes(16);
      [&] { ASSERT_TRUE(coin.commit(i, sha256(ByteView(secret))).is_ok()); }();
      [&] { ASSERT_TRUE(coin.reveal(i, secret).is_ok()); }();
    }
    return coin.output(4).value();
  };
  EXPECT_NE(run(1), run(2));
}

// ---------------------------------------------------------------------------
// Proactive refresh (recovery subsystem): epoch-scoped sub-key derivation.
// ---------------------------------------------------------------------------

TEST_P(DprfTest, RefreshEpochZeroIsIdentity) {
  // Deal-time material keeps working unchanged until the first refresh.
  for (const auto& ek : keys_) {
    const DprfElementKeys refreshed = dprf_refresh(ek, 0);
    EXPECT_EQ(refreshed.index, ek.index);
    EXPECT_EQ(refreshed.subkeys, ek.subkeys);
  }
}

TEST_P(DprfTest, RefreshIsDeterministicPerEpoch) {
  // Independent holders of the same sub-key derive the same refreshed key
  // without interaction.
  const DprfElementKeys a = dprf_refresh(keys_[0], 3);
  const DprfElementKeys b = dprf_refresh(keys_[0], 3);
  EXPECT_EQ(a.subkeys, b.subkeys);
}

TEST_P(DprfTest, RefreshedEpochsAreMutuallyUseless) {
  // Material leaked before a recovery must not survive it: every epoch's
  // sub-keys differ from every other epoch's (window-of-vulnerability bound).
  const DprfElementKeys e1 = dprf_refresh(keys_[0], 1);
  const DprfElementKeys e2 = dprf_refresh(keys_[0], 2);
  for (const auto& [id, key] : e1.subkeys) {
    EXPECT_NE(key, keys_[0].subkeys.at(id));
    EXPECT_NE(key, e2.subkeys.at(id));
  }
}

TEST_P(DprfTest, RefreshedSharesStillCombineToOneKey) {
  // After a generation bump, every element refreshes independently and the
  // threshold property is preserved: all shares combine to the (refreshed)
  // master evaluation, and corrupt-share detection still works.
  const Bytes input = to_bytes("conn:7|epoch:2");
  std::vector<DprfElementKeys> refreshed;
  refreshed.reserve(keys_.size());
  for (const auto& ek : keys_) refreshed.push_back(dprf_refresh(ek, 5));

  DprfCombiner combiner(params_, input);
  for (const auto& ek : refreshed) {
    DprfElement element(params_, ek);
    ASSERT_TRUE(combiner.add_share(element.evaluate(input)).is_ok());
  }
  ASSERT_TRUE(combiner.ready());
  const auto key = combiner.combine();
  ASSERT_TRUE(key.is_ok());
  EXPECT_EQ(key.value(), dprf_eval_master(params_, refreshed, input));
  // A different generation's combination yields a DIFFERENT key.
  EXPECT_NE(key.value(), dprf_eval_master(params_, keys_, input));
}

}  // namespace
}  // namespace itdos::crypto
