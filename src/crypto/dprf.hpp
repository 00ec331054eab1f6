// Distributed (non-interactive) pseudo-random function for communication-key
// generation (§3.5; refs Naor-Pinkas-Reingold [26], Cachin-Kursawe-Shoup [5]).
//
// Construction: replicated-subset DPRF with threshold t = f+1 over n = 3f+1
// Group Manager elements. A trusted dealer (the paper's "configuration
// inputs") draws one sub-key k_A for every subset A of [n] with |A| = n - f
// and hands k_A to each element in A. For a common non-repeating input x:
//
//     F(x) = SHA256( XOR over all A of HMAC(k_A, x) )
//
// Properties (both exercised by tests/benches):
//   * Secrecy: any f elements jointly miss at least one sub-key (the one for
//     A = complement of the corrupt set), so their pooled knowledge leaves
//     F(x) masked by an unknown PRF output — they "cannot tamper with or
//     obtain the communication key even when they combine their key shares".
//   * Robust combination: every A has |A| = 2f+1 holders, so each sub-value
//     HMAC(k_A, x) is vouched for by >= f+1 correct elements. The combiner
//     accepts a sub-value once f+1 received copies agree (at least one is
//     then from a correct element), and flags elements whose evaluations
//     disagree with accepted values — the paper's "verify which Group
//     Manager replication domain elements acted correctly".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "crypto/cipher.hpp"
#include "crypto/sha256.hpp"

namespace itdos::crypto {

/// DPRF system parameters. n must be 3f+1 with f >= 1 (and n <= 32 so
/// subsets fit a bitmask; f <= 5 keeps the sub-key count, C(n, f), modest).
struct DprfParams {
  int n = 4;
  int f = 1;

  int threshold() const { return f + 1; }       // elements needed to evaluate
  int subset_size() const { return n - f; }     // holders per sub-key
  Status validate() const;

  /// All subsets of {0..n-1} with |A| = n - f, as bitmasks, in increasing
  /// numeric order. Subset ids index into this list.
  std::vector<std::uint32_t> subsets() const;
};

/// The sub-keys one element holds (its slice of the dealt key material).
struct DprfElementKeys {
  int index = 0;                             // element index in [0, n)
  std::map<int, Bytes> subkeys;              // subset id -> k_A (A contains index)
};

/// One element's evaluation of the DPRF on an input: its sub-values for
/// every subset it belongs to. This is the "key share + verification
/// information" message of §3.5.
struct DprfShare {
  int element = 0;
  std::map<int, Digest> evaluations;         // subset id -> HMAC(k_A, x)

  /// Wire encoding (shares travel inside sealed GM messages): the one
  /// marshal, into a chunk sized to the share.
  BufView encode() const;
  static Result<DprfShare> decode(ByteView data);
};

/// Trusted dealer: generates and distributes sub-keys. Runs once at system
/// configuration time (the paper: "ITDOS relies upon configuration inputs
/// for its pseudo-random functions").
std::vector<DprfElementKeys> dprf_deal(const DprfParams& params, Rng& rng);

/// Epoch-scoped proactive refresh of one element's sub-keys: every sub-key
/// is replaced by k_A^(e) = HMAC(k_A, "itdos.dprf.refresh" | e). Because the
/// derivation is deterministic per sub-key, all holders of k_A derive the
/// same k_A^(e) independently — no interaction needed — while material from
/// epoch e is useless for epoch e' != e (the window-of-vulnerability bound:
/// key shares leaked before a recovery do not survive it). Epoch 0 is the
/// identity so deal-time key material keeps working unchanged.
DprfElementKeys dprf_refresh(const DprfElementKeys& keys, std::uint64_t epoch);

/// A Group Manager element's evaluator.
class DprfElement {
 public:
  DprfElement(DprfParams params, DprfElementKeys keys)
      : params_(params), keys_(std::move(keys)) {}

  int index() const { return keys_.index; }

  DprfShare evaluate(ByteView input) const;

 private:
  DprfParams params_;
  DprfElementKeys keys_;
};

/// Collects shares for one input and combines them into the communication
/// key once every subset's sub-value is confirmed by f+1 agreeing copies.
class DprfCombiner {
 public:
  /// `input` is copied once into the combiner (it outlives the caller's
  /// buffer); it is the only copy this class makes.
  DprfCombiner(DprfParams params, ByteView input);

  /// Adds one element's share; duplicate elements are ignored, malformed
  /// shares (unknown subset ids / subsets not containing the element) are
  /// rejected with kMalformedMessage.
  Status add_share(const DprfShare& share);

  /// True once every subset has an accepted sub-value.
  bool ready() const;

  /// The combined key; kUnavailable until ready().
  Result<SymmetricKey> combine() const;

  /// Elements whose evaluations contradicted an accepted sub-value. Only
  /// meaningful for subsets already resolved.
  std::vector<int> misbehaving() const;

  int shares_received() const { return static_cast<int>(shares_.size()); }

 private:
  DprfParams params_;
  Bytes input_;
  std::vector<std::uint32_t> subsets_;
  std::map<int, DprfShare> shares_;                  // element -> share
  std::vector<std::optional<Digest>> accepted_;      // per subset id
  std::vector<std::map<Digest, std::vector<int>>> votes_;  // subset -> value -> voters
};

/// Convenience: evaluate the DPRF centrally from the full dealt key set
/// (tests and the "traditional Group Manager" baseline use this).
SymmetricKey dprf_eval_master(const DprfParams& params,
                              const std::vector<DprfElementKeys>& all_keys,
                              ByteView input);

/// Commit-reveal distributed coin used to (re-)initialize each GM element's
/// pseudo-random generator (§3.5: "distributed random number generation
/// process to initialize (and periodically re-initialize) the PNGs").
/// Elements first register commitments H(r_i), then reveals; the coin is
/// SHA256 over the reveals (in element order) that match their commitment.
/// With >= f+1 honest contributions the output is unpredictable to any
/// f-element coalition.
class CommitRevealCoin {
 public:
  explicit CommitRevealCoin(int n) : commitments_(n), reveals_(n) {}

  Status commit(int element, const Digest& commitment);
  Status reveal(int element, ByteView value);

  int reveals_accepted() const;

  /// kUnavailable until at least `min_contributions` valid reveals exist.
  Result<Bytes> output(int min_contributions) const;

 private:
  std::vector<std::optional<Digest>> commitments_;
  std::vector<std::optional<Bytes>> reveals_;
};

}  // namespace itdos::crypto
