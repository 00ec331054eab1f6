// Properties of bft::proposal_digest over seeded batches: it changes with
// every byte a replica executes (each entry's header and payload), with the
// entries' order and number, and with their framing (bytes moved between
// neighbours, an entry split in two); it ignores the authenticators; and
// the primary's value, fed the payload digests it computed when it
// verified each request, equals the value a backup recomputes from the
// wire.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "batch/batch_msg.hpp"
#include "bft/messages.hpp"
#include "common/rng.hpp"
#include "wire.hpp"

namespace itdos::bft {
namespace {

constexpr int kBatches = 40;

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

/// A batch of 1 to 6 requests with payloads of 0 to 300 bytes, each with
/// four random authenticators.
batch::BatchMsg random_batch(Rng& rng) {
  batch::BatchMsg batch;
  const std::uint64_t entries = 1 + rng.next_below(6);
  for (std::uint64_t i = 0; i < entries; ++i) {
    RequestMsg request;
    request.client = NodeId(1000 + rng.next_below(4));
    request.timestamp = 1 + rng.next_below(1000);
    request.payload = BufView(random_bytes(rng, rng.next_below(301)));
    batch.entries.push_back(batch::BatchEntry{
        BufView(body_of(request)), BufView(random_bytes(rng, 4 * batch::kAuthEntrySize))});
  }
  return batch;
}

/// `batch` with entry `i`'s request replaced by `request`.
batch::BatchMsg with_request(batch::BatchMsg batch, std::size_t i, Bytes request) {
  batch.entries[i].request = BufView(std::move(request));
  return batch;
}

Bytes bytes_of(const BufView& view) { return view.clone_bytes(); }

TEST(ProposalDigestTest, EveryHeaderAndPayloadByteCounts) {
  Rng rng(41);
  for (int trial = 0; trial < kBatches; ++trial) {
    const batch::BatchMsg batch = random_batch(rng);
    const Digest digest = proposal_digest(batch);
    for (std::size_t i = 0; i < batch.entries.size(); ++i) {
      const Bytes request = bytes_of(batch.entries[i].request);
      for (std::size_t at = 0; at < kRequestHeaderSize; ++at) {
        Bytes mutant = request;
        mutant[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        EXPECT_NE(proposal_digest(with_request(batch, i, mutant)), digest)
            << "entry " << i << " header byte " << at;
      }
      for (int flip = 0; flip < 8 && request.size() > kRequestHeaderSize; ++flip) {
        Bytes mutant = request;
        const std::size_t at =
            kRequestHeaderSize + rng.next_below(request.size() - kRequestHeaderSize);
        mutant[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
        EXPECT_NE(proposal_digest(with_request(batch, i, mutant)), digest)
            << "entry " << i << " payload byte " << at;
      }
    }
  }
}

TEST(ProposalDigestTest, OrderAndCountCount) {
  Rng rng(42);
  for (int trial = 0; trial < kBatches; ++trial) {
    const batch::BatchMsg batch = random_batch(rng);
    const Digest digest = proposal_digest(batch);
    for (std::size_t i = 0; i + 1 < batch.entries.size(); ++i) {
      if (batch.entries[i].request == batch.entries[i + 1].request) continue;
      batch::BatchMsg swapped = batch;
      std::swap(swapped.entries[i], swapped.entries[i + 1]);
      EXPECT_NE(proposal_digest(swapped), digest) << "entries " << i << ", " << i + 1;
    }
    batch::BatchMsg longer = batch;
    longer.entries.push_back(batch.entries.front());
    EXPECT_NE(proposal_digest(longer), digest);
    if (batch.entries.size() > 1) {
      batch::BatchMsg shorter = batch;
      shorter.entries.pop_back();
      EXPECT_NE(proposal_digest(shorter), digest);
    }
  }
}

TEST(ProposalDigestTest, ReframingChangesTheDigest) {
  // The same bytes cut into entries differently: some moved from the end
  // of one entry to the start of the next, or one entry split in two.
  Rng rng(43);
  for (int trial = 0; trial < kBatches; ++trial) {
    const batch::BatchMsg batch = random_batch(rng);
    const Digest digest = proposal_digest(batch);
    for (std::size_t i = 0; i + 1 < batch.entries.size(); ++i) {
      const Bytes left = bytes_of(batch.entries[i].request);
      const Bytes right = bytes_of(batch.entries[i + 1].request);
      for (const std::size_t moved : {std::size_t{1}, std::size_t{4}, left.size() / 2}) {
        if (moved == 0 || moved > left.size()) continue;
        Bytes new_left(left.begin(), left.end() - static_cast<std::ptrdiff_t>(moved));
        Bytes new_right(left.end() - static_cast<std::ptrdiff_t>(moved), left.end());
        append(new_right, right);
        batch::BatchMsg reframed = with_request(batch, i, new_left);
        reframed.entries[i + 1].request = BufView(std::move(new_right));
        EXPECT_NE(proposal_digest(reframed), digest) << "moved " << moved << " after " << i;
      }
    }
    for (std::size_t i = 0; i < batch.entries.size(); ++i) {
      const Bytes request = bytes_of(batch.entries[i].request);
      for (const std::size_t cut : {std::size_t{1}, kRequestHeaderSize, request.size() - 1}) {
        if (cut == 0 || cut >= request.size()) continue;
        batch::BatchMsg split = with_request(
            batch, i, Bytes(request.begin(), request.begin() + static_cast<std::ptrdiff_t>(cut)));
        split.entries.insert(
            split.entries.begin() + static_cast<std::ptrdiff_t>(i) + 1,
            batch::BatchEntry{
                BufView(Bytes(request.begin() + static_cast<std::ptrdiff_t>(cut), request.end())),
                batch.entries[i].auth});
        EXPECT_NE(proposal_digest(split), digest) << "entry " << i << " split at " << cut;
      }
    }
  }
}

TEST(ProposalDigestTest, AuthenticatorsAreNotCovered) {
  Rng rng(44);
  for (int trial = 0; trial < kBatches; ++trial) {
    const batch::BatchMsg batch = random_batch(rng);
    batch::BatchMsg retagged = batch;
    for (batch::BatchEntry& entry : retagged.entries) {
      entry.auth = BufView(random_bytes(rng, rng.next_below(5) * batch::kAuthEntrySize));
    }
    EXPECT_EQ(proposal_digest(retagged), proposal_digest(batch));
  }
}

TEST(ProposalDigestTest, PrimaryFromCachedDigestsEqualsBackupFromTheWire) {
  // The primary hashes each payload once, when it verifies the REQUEST
  // (payload_digest of the body, which is the payload's own SHA-256), and
  // walks those digests; a backup decodes the marshalled batch and hashes
  // every payload again.
  Rng rng(45);
  for (int trial = 0; trial < kBatches; ++trial) {
    const batch::BatchMsg batch = random_batch(rng);
    ProposalDigest primary(batch.entries.size());
    for (const batch::BatchEntry& entry : batch.entries) {
      const RequestMsg request = RequestMsg::decode(entry.request).value();
      const Digest cached = crypto::sha256(ByteView(request.payload));
      EXPECT_EQ(cached, payload_digest(entry.request));
      primary.add(entry.request, cached);
    }
    const Result<batch::BatchMsg> wire = batch::BatchMsg::decode(batch.encode());
    ASSERT_TRUE(wire.is_ok());
    EXPECT_EQ(primary.finish(), proposal_digest(wire.value()));
  }
}

}  // namespace
}  // namespace itdos::bft
