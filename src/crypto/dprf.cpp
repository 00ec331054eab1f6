#include "crypto/dprf.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace itdos::crypto {

Status DprfParams::validate() const {
  if (f < 1) return error(Errc::kInvalidArgument, "f must be >= 1");
  if (n != 3 * f + 1) return error(Errc::kInvalidArgument, "n must equal 3f+1");
  if (n > 32) return error(Errc::kInvalidArgument, "n must be <= 32");
  return Status::ok();
}

std::vector<std::uint32_t> DprfParams::subsets() const {
  std::vector<std::uint32_t> out;
  const std::uint32_t limit = (n == 32) ? 0xffffffffu : ((1u << n) - 1);
  for (std::uint32_t mask = 0; mask <= limit; ++mask) {
    if (std::popcount(mask) == subset_size()) out.push_back(mask);
    if (mask == limit) break;  // avoid overflow wrap when limit == UINT32_MAX
  }
  return out;
}

std::vector<DprfElementKeys> dprf_deal(const DprfParams& params, Rng& rng) {
  assert(params.validate().is_ok());
  const auto subsets = params.subsets();
  std::vector<DprfElementKeys> out(params.n);
  for (int i = 0; i < params.n; ++i) out[i].index = i;
  for (std::size_t id = 0; id < subsets.size(); ++id) {
    const Bytes subkey = rng.next_bytes(32);
    for (int i = 0; i < params.n; ++i) {
      if (subsets[id] & (1u << i)) out[i].subkeys[static_cast<int>(id)] = subkey;
    }
  }
  return out;
}

DprfElementKeys dprf_refresh(const DprfElementKeys& keys, std::uint64_t epoch) {
  if (epoch == 0) return keys;
  DprfElementKeys out;
  out.index = keys.index;
  Bytes label;
  const char* tag = "itdos.dprf.refresh";
  label.insert(label.end(), tag, tag + 18);
  for (int i = 0; i < 8; ++i) {
    label.push_back(static_cast<std::uint8_t>(epoch >> (i * 8)));
  }
  for (const auto& [subset_id, subkey] : keys.subkeys) {
    out.subkeys[subset_id] =
        digest_bytes(hmac_sha256(subkey, ByteView(label.data(), label.size())));
  }
  return out;
}

DprfShare DprfElement::evaluate(ByteView input) const {
  DprfShare share;
  share.element = keys_.index;
  for (const auto& [subset_id, subkey] : keys_.subkeys) {
    share.evaluations[subset_id] = hmac_sha256(subkey, input);
  }
  return share;
}

BufView DprfShare::encode() const {
  // Element octet and entry count, then per entry its subset id and digest.
  Bytes out;
  out.reserve(5 + evaluations.size() * (4 + kDigestSize));
  out.push_back(static_cast<std::uint8_t>(element));
  const auto count = static_cast<std::uint32_t>(evaluations.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(count >> (i * 8)));
  for (const auto& [id, digest] : evaluations) {
    const auto uid = static_cast<std::uint32_t>(id);
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(uid >> (i * 8)));
    append(out, digest_view(digest));
  }
  return BufView(std::move(out));
}

Result<DprfShare> DprfShare::decode(ByteView data) {
  if (data.size() < 5) return error(Errc::kMalformedMessage, "dprf share too short");
  DprfShare share;
  share.element = data[0];
  std::uint32_t count = 0;
  for (int i = 0; i < 4; ++i) count |= std::uint32_t(data[1 + i]) << (i * 8);
  std::size_t offset = 5;
  const std::size_t entry_size = 4 + kDigestSize;
  if (data.size() != offset + count * entry_size) {
    return error(Errc::kMalformedMessage, "dprf share size mismatch");
  }
  for (std::uint32_t e = 0; e < count; ++e) {
    std::uint32_t id = 0;
    for (int i = 0; i < 4; ++i) id |= std::uint32_t(data[offset + i]) << (i * 8);
    Digest d;
    std::copy_n(data.data() + offset + 4, kDigestSize, d.begin());
    share.evaluations[static_cast<int>(id)] = d;
    offset += entry_size;
  }
  return share;
}

DprfCombiner::DprfCombiner(DprfParams params, ByteView input)
    : params_(params),
      input_(input.begin(), input.end()),
      subsets_(params.subsets()),
      accepted_(subsets_.size()),
      votes_(subsets_.size()) {}

Status DprfCombiner::add_share(const DprfShare& share) {
  if (share.element < 0 || share.element >= params_.n) {
    return error(Errc::kMalformedMessage, "dprf share from out-of-range element");
  }
  if (shares_.contains(share.element)) {
    return Status::ok();  // duplicate; first one wins
  }
  // An element may only evaluate subsets it belongs to, and must evaluate
  // all of them (a partial share is withheld information, not an error we
  // reject — but unknown ids are malformed).
  for (const auto& [subset_id, digest] : share.evaluations) {
    if (subset_id < 0 || static_cast<std::size_t>(subset_id) >= subsets_.size()) {
      return error(Errc::kMalformedMessage, "dprf share references unknown subset");
    }
    if (!(subsets_[subset_id] & (1u << share.element))) {
      return error(Errc::kMalformedMessage,
                   "dprf share evaluates subset the element is not in");
    }
  }
  shares_[share.element] = share;
  for (const auto& [subset_id, digest] : share.evaluations) {
    auto& tally = votes_[subset_id][digest];
    tally.push_back(share.element);
    if (!accepted_[subset_id] &&
        static_cast<int>(tally.size()) >= params_.threshold()) {
      accepted_[subset_id] = digest;
    }
  }
  return Status::ok();
}

bool DprfCombiner::ready() const {
  return std::all_of(accepted_.begin(), accepted_.end(),
                     [](const auto& a) { return a.has_value(); });
}

Result<SymmetricKey> DprfCombiner::combine() const {
  if (!ready()) {
    return error(Errc::kUnavailable, "dprf: not all subsets resolved");
  }
  Bytes acc(kDigestSize, 0);
  for (const auto& a : accepted_) {
    xor_into(acc, digest_view(*a));
  }
  // Domain-separate the final key from the raw XOR accumulator.
  const Digest key = hmac_sha256(acc, input_);
  return SymmetricKey::from_bytes(digest_view(key));
}

std::vector<int> DprfCombiner::misbehaving() const {
  std::vector<int> out;
  for (std::size_t subset_id = 0; subset_id < subsets_.size(); ++subset_id) {
    if (!accepted_[subset_id]) continue;
    for (const auto& [value, voters] : votes_[subset_id]) {
      if (value == *accepted_[subset_id]) continue;
      for (int v : voters) out.push_back(v);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

SymmetricKey dprf_eval_master(const DprfParams& params,
                              const std::vector<DprfElementKeys>& all_keys,
                              ByteView input) {
  DprfCombiner combiner(params, input);
  for (const auto& keys : all_keys) {
    DprfElement element(params, keys);
    const Status s = combiner.add_share(element.evaluate(input));
    assert(s.is_ok());
    (void)s;
    if (combiner.ready()) break;
  }
  auto result = combiner.combine();
  assert(result.is_ok());
  return std::move(result).take();
}

Status CommitRevealCoin::commit(int element, const Digest& commitment) {
  if (element < 0 || element >= static_cast<int>(commitments_.size())) {
    return error(Errc::kInvalidArgument, "coin commit from out-of-range element");
  }
  if (commitments_[element]) {
    return error(Errc::kAlreadyExists, "coin commit already registered");
  }
  commitments_[element] = commitment;
  return Status::ok();
}

Status CommitRevealCoin::reveal(int element, ByteView value) {
  if (element < 0 || element >= static_cast<int>(reveals_.size())) {
    return error(Errc::kInvalidArgument, "coin reveal from out-of-range element");
  }
  if (!commitments_[element]) {
    return error(Errc::kFailedPrecondition, "coin reveal without commitment");
  }
  if (sha256(value) != *commitments_[element]) {
    return error(Errc::kAuthFailure, "coin reveal does not match commitment");
  }
  reveals_[element] = Bytes(value.begin(), value.end());
  return Status::ok();
}

int CommitRevealCoin::reveals_accepted() const {
  int count = 0;
  for (const auto& r : reveals_) count += r.has_value() ? 1 : 0;
  return count;
}

Result<Bytes> CommitRevealCoin::output(int min_contributions) const {
  if (reveals_accepted() < min_contributions) {
    return error(Errc::kUnavailable, "coin: not enough reveals");
  }
  Sha256 hash;
  for (std::size_t i = 0; i < reveals_.size(); ++i) {
    if (!reveals_[i]) continue;
    const std::uint8_t index = static_cast<std::uint8_t>(i);
    hash.update(ByteView(&index, 1));
    hash.update(ByteView(reveals_[i]->data(), reveals_[i]->size()));
  }
  return digest_bytes(hash.finish());
}

}  // namespace itdos::crypto
