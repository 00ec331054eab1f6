// Shared helpers for the ITDOS benchmark harness.
//
// Two kinds of numbers appear in these benchmarks:
//   * wall-clock time per iteration (google-benchmark's native metric) —
//     the host CPU cost of running the protocol code;
//   * simulated time / message counts (reported as counters, suffix
//     "sim_us" / "pkts") — the protocol-level costs the paper's claims are
//     about. Network delays are identical across configurations (50-200us
//     per hop unless stated), so simulated-latency *ratios* are meaningful.
// Every bench binary additionally emits a machine-readable report,
// BENCH_<name>.json, assembled from telemetry::MetricsRegistry snapshots
// (simulation-backed benches harvest the simulator's registry; pure-CPU
// benches record host wall-clock per op into registry histograms). The
// report format is pinned by bench/bench_schema.json and checked by
// scripts/bench_smoke.sh.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "itdos/system.hpp"
#include "telemetry/telemetry.hpp"

namespace itdos::bench {

/// Accumulates telemetry across every benchmark in one binary; written out
/// as BENCH_<name>.json by ITDOS_BENCH_MAIN. Counters and histograms merge
/// additively, so benches that build a fresh system per iteration harvest
/// inside the loop and the report carries binary-wide totals.
class BenchReport {
 public:
  static BenchReport& instance() {
    static BenchReport report;
    return report;
  }

  telemetry::MetricsRegistry& registry() { return registry_; }

  /// One point of a latency-vs-offered-load curve (bench/e11_offered_load):
  /// outcome counts and latency percentiles at one offered rate.
  struct CurvePoint {
    double rate_per_s = 0.0;
    std::uint64_t offered = 0;
    std::uint64_t ok = 0;
    std::uint64_t overloaded = 0;  // explicit admission-control replies
    std::uint64_t failed = 0;      // timeouts / transport errors
    std::uint64_t starved = 0;     // arrivals the generator had to drop
    std::uint64_t sheds = 0;       // replicated admission sheds
    std::int64_t p50_ns = 0;
    std::int64_t p99_ns = 0;
    double goodput_per_s = 0.0;
  };

  /// Records a curve point under `curve` (e.g. "attack_controller_on").
  /// Keyed by (curve, rate): benchmark repeat iterations overwrite rather
  /// than duplicate their rate points.
  void add_curve_point(const std::string& curve, const CurvePoint& point) {
    auto& points = curves_[curve];
    for (CurvePoint& existing : points) {
      if (existing.rate_per_s == point.rate_per_s) {
        existing = point;
        return;
      }
    }
    points.push_back(point);
  }

  /// Merges the simulator's registry into the report (call before the
  /// simulator is destroyed).
  void harvest(const net::Simulator& sim) {
    registry_.merge_from(sim.telemetry().metrics());
  }

  /// Mirrors the process-wide buffer copy accounting (BufStats) into the
  /// registry as `buf.copies` / `buf.bytes_copied`. Called once by
  /// ITDOS_BENCH_MAIN just before the report is written, so the counters
  /// reflect every copy the binary's whole run made on the message path.
  void mirror_buf_stats() {
    registry_.counter("buf.copies").inc(BufStats::copies);
    registry_.counter("buf.bytes_copied").inc(BufStats::bytes_copied);
  }

  /// Writes BENCH_<name>.json into the working directory.
  void write(const std::string& name) const {
    std::ofstream out("BENCH_" + name + ".json");
    out << "{\n";
    out << "  \"schema_version\": 1,\n";
    out << "  \"bench\": \"" << name << "\",\n";

    out << "  \"counters\": {";
    const char* sep = "";
    for (const auto& [cname, counter] : registry_.counters()) {
      out << sep << "\n    \"" << cname << "\": " << counter.value();
      sep = ",";
    }
    out << "\n  },\n";

    out << "  \"gauges\": {";
    sep = "";
    for (const auto& [gname, gauge] : registry_.gauges()) {
      out << sep << "\n    \"" << gname << "\": {\"value\": " << gauge.value()
          << ", \"peak\": " << gauge.peak() << ", \"series\": [";
      const char* ssep = "";
      for (const auto& sample : gauge.series()) {
        out << ssep << "{\"t\": " << sample.t_ns << ", \"v\": " << sample.v << "}";
        ssep = ", ";
      }
      out << "]}";
      sep = ",";
    }
    out << "\n  },\n";

    out << "  \"histograms\": {";
    sep = "";
    for (const auto& [hname, hist] : registry_.histograms()) {
      if (hist.count() == 0) continue;  // nothing informative to report
      char mean[64];
      std::snprintf(mean, sizeof(mean), "%.3f", hist.mean());
      out << sep << "\n    \"" << hname << "\": {\"count\": " << hist.count()
          << ", \"min\": " << hist.min() << ", \"max\": " << hist.max()
          << ", \"mean\": " << mean << ", \"p50\": " << hist.percentile(50.0)
          << ", \"p95\": " << hist.percentile(95.0)
          << ", \"p99\": " << hist.percentile(99.0) << "}";
      sep = ",";
    }
    out << "\n  }";

    // Latency-vs-offered-load curves (optional: only offered-load benches
    // record them; their absence keeps every older report schema-valid).
    if (!curves_.empty()) {
      out << ",\n  \"curves\": {";
      sep = "";
      for (const auto& [curve, points] : curves_) {
        out << sep << "\n    \"" << curve << "\": [";
        const char* psep = "";
        for (const CurvePoint& p : points) {
          char rate[64];
          char goodput[64];
          std::snprintf(rate, sizeof(rate), "%.3f", p.rate_per_s);
          std::snprintf(goodput, sizeof(goodput), "%.3f", p.goodput_per_s);
          out << psep << "\n      {\"rate_per_s\": " << rate
              << ", \"offered\": " << p.offered << ", \"ok\": " << p.ok
              << ", \"overloaded\": " << p.overloaded
              << ", \"failed\": " << p.failed << ", \"starved\": " << p.starved
              << ", \"sheds\": " << p.sheds << ", \"p50_ns\": " << p.p50_ns
              << ", \"p99_ns\": " << p.p99_ns
              << ", \"goodput_per_s\": " << goodput << "}";
          psep = ",";
        }
        out << "\n    ]";
        sep = ",";
      }
      out << "\n  }";
    }
    out << "\n}\n";
  }

 private:
  BenchReport() = default;
  telemetry::MetricsRegistry registry_;
  std::map<std::string, std::vector<CurvePoint>> curves_;
};

/// RAII host-clock sampler: records wall-clock nanoseconds from construction
/// to destruction into a registry histogram. Gives pure-CPU benches (voting,
/// threshold crypto, marshalling) a latency histogram in the same report
/// format the simulation benches get from the telemetry seam.
class ScopedHostTimer {
 public:
  explicit ScopedHostTimer(telemetry::Histogram& hist)
      : hist_(hist), begin_(std::chrono::steady_clock::now()) {}
  ~ScopedHostTimer() {
    hist_.record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - begin_)
                     .count());
  }
  ScopedHostTimer(const ScopedHostTimer&) = delete;
  ScopedHostTimer& operator=(const ScopedHostTimer&) = delete;

 private:
  telemetry::Histogram& hist_;
  std::chrono::steady_clock::time_point begin_;
};

/// A calculator servant shared by several benches.
class BenchCalculator : public orb::Servant {
 public:
  std::string interface_name() const override { return "IDL:bench/Calc:1.0"; }
  void dispatch(const std::string& operation, const cdr::Value& arguments,
                orb::ServerContext&, orb::ReplySinkPtr sink) override {
    if (operation == "add") {
      std::int64_t sum = 0;
      for (const cdr::Value& v : arguments.elements()) sum += v.as_int64();
      sink->reply(cdr::Value::int64(sum));
    } else if (operation == "echo") {
      sink->reply(arguments);
    } else {
      sink->reply(error(Errc::kInvalidArgument, "unknown op"));
    }
  }
};

inline core::DomainElement::ServantInstaller calculator_installer() {
  return [](orb::ObjectAdapter& adapter, int) {
    (void)adapter.activate_with_key(ObjectId(1), std::make_shared<BenchCalculator>());
  };
}

inline cdr::Value int_args(std::int64_t a, std::int64_t b) {
  return cdr::Value::sequence({cdr::Value::int64(a), cdr::Value::int64(b)});
}

/// A payload Value of roughly `bytes` marshalled size.
inline cdr::Value payload_of_size(std::size_t bytes) {
  std::string blob(bytes, 'x');
  return cdr::Value::sequence({cdr::Value::string(std::move(blob))});
}

}  // namespace itdos::bench

/// Replaces BENCHMARK_MAIN(): runs the registered benchmarks, then writes
/// the BENCH_<name>.json telemetry report. `name` is a string literal.
#define ITDOS_BENCH_MAIN(name)                                              \
  int main(int argc, char** argv) {                                         \
    ::benchmark::Initialize(&argc, argv);                                   \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;     \
    ::benchmark::RunSpecifiedBenchmarks();                                  \
    ::benchmark::Shutdown();                                                \
    ::itdos::bench::BenchReport::instance().mirror_buf_stats();             \
    ::itdos::bench::BenchReport::instance().write(name);                    \
    return 0;                                                               \
  }
