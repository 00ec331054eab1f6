// The metrics half of the telemetry seam: a registry of named counters,
// gauges, and log-linear latency histograms. Cheap enough to stay on in every
// test — instruments are resolved to stable addresses once at component
// construction, so the hot path is a single add on a cached pointer.
//
// Histograms are HdrHistogram-style log-linear: 16 sub-buckets per power-of-2
// magnitude, so any recorded value is bucketed with relative error <= 1/16.
// Percentiles (p50/p95/p99/max) come from a bucket walk; the representative
// value is the bucket's upper edge clamped to the observed maximum, so
// percentile() never exceeds max().
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/ids.hpp"

namespace itdos::telemetry {

/// The registry name of a per-node or per-domain instrument:
/// "<layer>.<scope>.<name>", e.g. metric_name("bft", NodeId(3), "executed")
/// is "bft.3.executed". Components register under it and readers look
/// counters up by it, so the two spellings cannot drift apart.
template <typename Tag>
std::string metric_name(std::string_view layer, detail::StrongId<Tag> scope,
                        std::string_view name) {
  std::string out(layer);
  out += '.';
  out += scope.to_string();
  out += '.';
  out += name;
  return out;
}

/// A monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// A point-in-time level (queue depth, open connections). Tracks the peak
/// since the last reset alongside the current value, and — when the owning
/// registry has a clock (MetricsRegistry::set_clock, wired by the telemetry
/// Hub) — a bounded (time, value) series of the level over the run.
///
/// The series is sampled on change, never on a timer: scheduling sampling
/// events would perturb the discrete-event simulator and break same-seed
/// trace stability. Capacity is bounded by decimation — when the buffer
/// fills, every other sample is dropped and the recording stride doubles, so
/// a long run keeps ~uniform coverage at a fixed memory cost and the kept
/// samples depend only on the sequence of set() calls (deterministic under
/// the same seed).
class Gauge {
 public:
  struct Sample {
    std::int64_t t_ns = 0;  // simulation time of the change
    std::int64_t v = 0;     // gauge value after the change
  };
  static constexpr std::size_t kMaxSeriesSamples = 256;

  void set(std::int64_t v) {
    value_ = v;
    if (v > peak_) peak_ = v;
    if (clock_) sample(v);
  }
  void add(std::int64_t delta) { set(value_ + delta); }
  std::int64_t value() const { return value_; }
  std::int64_t peak() const { return peak_; }

  /// Decimated (time, value) history; empty when the registry has no clock.
  const std::vector<Sample>& series() const { return series_; }

  void reset() {
    value_ = 0;
    peak_ = 0;
    series_.clear();
    stride_ = 1;
    ticks_ = 0;
  }

 private:
  friend class MetricsRegistry;

  void sample(std::int64_t v);
  void append_sample(Sample s);
  void decimate();

  std::int64_t value_ = 0;
  std::int64_t peak_ = 0;
  std::shared_ptr<const std::function<std::int64_t()>> clock_;
  std::vector<Sample> series_;
  std::uint64_t stride_ = 1;  // record every stride-th change
  std::uint64_t ticks_ = 0;
};

/// Log-linear histogram over non-negative integer samples (nanoseconds,
/// bytes, ...). Negative samples clamp to zero.
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;  // per power-of-2 magnitude

  void record(std::int64_t sample);

  std::uint64_t count() const { return count_; }
  std::uint64_t max() const { return max_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }

  /// Value at percentile `p` in [0, 100]. Returns 0 when empty.
  std::uint64_t percentile(double p) const;

  void merge_from(const Histogram& other);
  void reset();

 private:
  static std::size_t bucket_index(std::uint64_t v);
  static std::uint64_t bucket_upper(std::size_t index);

  // Values clamp to int64 max => bit_width <= 63 => max index 959.
  static constexpr std::size_t kBucketCount = 960;

  std::vector<std::uint64_t> buckets_;  // allocated lazily on first record
  std::uint64_t count_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::uint64_t sum_ = 0;
};

/// Owns every instrument, keyed by dotted name ("bft.3.commits_sent").
/// Instruments are created on first lookup and have stable addresses for the
/// registry's lifetime (std::map nodes never move), so callers cache the
/// returned references.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Installs the time source gauges stamp their series samples with
  /// (simulation nanoseconds; the Hub wires this to the simulator clock).
  /// Applies to existing gauges and to gauges created later. Without a
  /// clock, gauges track value/peak only and record no series.
  void set_clock(std::function<std::int64_t()> clock);

  /// Value of a counter, or 0 when it has never been touched. Lets views
  /// read metrics without creating them.
  std::uint64_t counter_value(std::string_view name) const;
  const Histogram* find_histogram(std::string_view name) const;

  /// Zeroes every instrument, keeping registrations (and addresses) intact.
  void reset();

  /// Folds another registry into this one (bench aggregation across
  /// independently simulated systems).
  void merge_from(const MetricsRegistry& other);

  // Sorted iteration for exporters; std::map keeps the order deterministic.
  const std::map<std::string, Counter, std::less<>>& counters() const { return counters_; }
  const std::map<std::string, Gauge, std::less<>>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram, std::less<>>& histograms() const { return histograms_; }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::shared_ptr<const std::function<std::int64_t()>> clock_;
};

}  // namespace itdos::telemetry
