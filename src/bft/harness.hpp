// Cluster: one-call wiring of a simulated BFT deployment — simulator,
// network, key material, 3f+1 replicas and any number of clients. Used by
// the test suite, the benchmark harness and the examples; downstream users
// get a working deployment in ~5 lines (see examples/quickstart.cpp).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "bft/client.hpp"
#include "bft/replica.hpp"

namespace itdos::bft {

struct ClusterOptions {
  int f = 1;
  std::uint64_t seed = 1;
  net::NetConfig net_config;
  std::int64_t checkpoint_interval = 16;
  std::int64_t client_retry_ns = millis(40);  // initial RTO and its cap; later retries' interval
  std::int64_t view_change_timeout_ns = millis(60);
  /// Batch formation caps (src/batch); default off (one request per slot).
  batch::Policy batch;
  /// Client-side in-flight window; default 1 (strictly serial clients).
  int pipeline_depth = 1;
};

class Cluster {
 public:
  /// Builds per-rank state machines; heterogeneous deployments return
  /// different implementations per rank (paper §1: "diversity in
  /// implementation").
  using AppFactory = std::function<std::unique_ptr<StateMachine>(int rank)>;

  Cluster(ClusterOptions options, const AppFactory& app_factory);

  net::Simulator& sim() { return sim_; }
  net::Network& network() { return net_; }
  const BftConfig& config() const { return config_; }
  const SessionKeys& keys() const { return keys_; }
  std::shared_ptr<const crypto::Keystore> keystore() const { return keystore_; }

  int n() const { return config_.n(); }
  Replica& replica(int rank) { return *replicas_.at(rank); }
  NodeId replica_id(int rank) const { return config_.replicas.at(rank); }

  /// Detaches a replica from the network (crash fault).
  void crash_replica(int rank);

  /// Reattaches a previously crashed replica (it will state-transfer).
  void restart_replica(int rank);

  /// Creates a client (ids 1000, 1001, ...).
  Client& add_client();

  /// Invokes synchronously: runs the simulation until the request completes
  /// or `timeout_ns` of simulated time elapses (kUnavailable on timeout).
  Result<Bytes> invoke_sync(Client& client, BufView payload,
                            std::int64_t timeout_ns = seconds(5));

  /// Runs the simulation until idle or for `max_events`.
  void settle(std::size_t max_events = 2'000'000) { sim_.run(max_events); }

 private:
  ClusterOptions options_;
  net::Simulator sim_;
  net::Network net_;
  BftConfig config_;
  SessionKeys keys_;
  std::shared_ptr<crypto::Keystore> keystore_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::vector<std::unique_ptr<Client>> clients_;
  AppFactory app_factory_;
  std::uint64_t next_client_id_ = 1000;
};

/// Executes `request` on `app` with the payload digest a replica would pass
/// (tests and benches that drive a state machine without a replica).
Bytes execute_with_digest(StateMachine& app, const BufView& request, NodeId client,
                          SeqNum seq);

/// Simple deterministic state machines for tests, benches and examples.

/// Appends commands to a log and replies "OK:<count>".
class LogStateMachine : public StateMachine {
 public:
  Bytes execute(const BufView& request, const crypto::Digest& digest, NodeId client,
                SeqNum seq) override;
  AppSnapshot snapshot() const override;
  Status restore(const AppSnapshot& snapshot) override;

  const std::vector<Bytes>& entries() const { return entries_; }

 private:
  std::vector<Bytes> entries_;
};

/// A replicated counter: request "add:<n>" adds, "get" reads.
class CounterStateMachine : public StateMachine {
 public:
  Bytes execute(const BufView& request, const crypto::Digest& digest, NodeId client,
                SeqNum seq) override;
  AppSnapshot snapshot() const override;
  Status restore(const AppSnapshot& snapshot) override;

  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

}  // namespace itdos::bft
