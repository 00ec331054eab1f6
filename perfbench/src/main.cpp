// The ITDOS end-to-end benchmark (perfbench/README.md).
//
//   itdos_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Repeats one workload on fresh deployments until --seconds are used up.
// Repetition i runs sub-seed i mod 3 of the seed (pairs of repetitions in a
// traced run), so the first three distinct repetitions fix every sim-time
// metric whatever the host speed, and later ones only add host-time samples.
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced repetitions and prints the per-layer metrics, a per-role host-time
// table and the ten slowest requests. The last stdout line is the result.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>

#include "bench.hpp"
#include "common/log.hpp"

namespace itdos::perfbench {
namespace {

constexpr int kSubSeeds = 3;

std::vector<WorkloadSpec> workload_table() {
  std::vector<WorkloadSpec> specs;
  {
    WorkloadSpec s;
    s.name = "small_serial";
    s.clients = 1;
    s.warmup_per_client = 50;
    s.measured = 1000;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "large_serial";
    s.clients = 1;
    s.warmup_per_client = 5;
    s.measured = 100;
    s.echo_share = 1.0;
    s.echo_bytes = 16 * 1024;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "batched_open";
    s.open_loop = true;
    s.clients = 4;
    s.batching = true;
    s.warmup_per_client = 25;
    // The knee sits near 13k req/s (four clients, one request in flight
    // each, ~300us per batched round). Latency is reported for the two
    // rates well below it; 12000 and 15000 locate it.
    s.rates = {6000, 9000, 12000, 15000};
    s.latency_phases = 2;
    s.window_ns = millis(60);
    s.echo_share = 0.25;
    s.echo_bytes = 1024;
    s.latency_limit_ns = micros(1500);
    s.host_probe = 500;
    specs.push_back(s);
  }
  {
    WorkloadSpec s;
    s.name = "primary_crash";
    s.open_loop = true;
    s.clients = 4;
    s.warmup_per_client = 25;
    s.rates = {2000};
    s.window_ns = millis(400);
    s.crash_at_ns = millis(100);
    s.echo_share = 0.25;
    s.echo_bytes = 1024;
    s.host_probe = 500;
    specs.push_back(s);
  }
  return specs;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int corrupt_ranks = 0;  // self-tests only: elements that answer wrongly
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--corrupt-elements") {
      args.corrupt_ranks = std::atoi(value);
    } else {
      return false;
    }
  }
  return !args.workload.empty() && argc % 2 == 1;
}

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// A fixed kernel independent of the ITDOS code: hashing into a balanced
/// tree, buffer copies, and malloc/free churn of mixed sizes. On a shared
/// machine the host's speed drifts by tens of percent over seconds; this
/// kernel's time drifts with it.
std::int64_t calibration_kernel_ns() {
  const std::int64_t t0 = host_now_ns();
  std::uint64_t h = 1469598103934665603ULL;
  std::map<std::uint64_t, std::uint64_t> tree;
  std::vector<std::uint8_t> a(16384, 1);
  std::vector<std::uint8_t> b;
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> live;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 256; ++i) {
      h = (h ^ static_cast<std::uint64_t>(i)) * 1099511628211ULL;
      tree[h % 4096] = h;
    }
    b = a;
    for (std::size_t i = 0; i < b.size(); i += 64) h += b[i];
    a[static_cast<std::size_t>(h % a.size())] = static_cast<std::uint8_t>(h);
    for (int i = 0; i < 100; ++i) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      live.push_back(std::make_unique<std::vector<std::uint8_t>>(16 + (h >> 50) % 2048));
      if (live.size() > 256) live.erase(live.begin() + static_cast<long>((h >> 20) % live.size()));
    }
  }
  volatile std::uint64_t sink = h + tree.size() + live.size();
  (void)sink;
  return host_now_ns() - t0;
}

/// Host times are reported on a reference machine on which the calibration
/// kernel takes exactly this long: every repetition's host times are scaled
/// by kReferenceKernelNs / (median kernel time measured around it).
constexpr double kReferenceKernelNs = 8'000'000.0;

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

using Reps = std::vector<const RepResult*>;

template <typename Fn>
double median_over(const Reps& reps, Fn&& fn) {
  std::vector<double> v;
  for (const RepResult* r : reps) v.push_back(fn(*r));
  return median(std::move(v));
}

std::uint64_t correct_replies(const RepResult& r) {
  std::uint64_t n = 0;
  for (const Outcome& o : r.outcomes) n += o.ok ? 1 : 0;
  return n;
}

double per_req(const RepResult& r, double total) {
  const std::uint64_t ok = correct_replies(r);
  return ok == 0 ? 0.0 : total / static_cast<double>(ok);
}

/// Host nanoseconds of repetition `r`, in reference-machine microseconds.
double ref_us(const RepResult& r, double host_ns) { return host_ns * r.scale / 1e3; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Sim-time metrics: pooled over one repetition of each sub-seed
// ---------------------------------------------------------------------------

/// Highest offered rate of the ladder whose sim p99 stays under the limit,
/// with no errors and no growing backlog: at the window's end no more
/// requests outstanding than the limit allows in flight (rate x limit, by
/// Little's law). Interpolated linearly in p99 between the last passing and
/// the first failing rate. Phases of one rate are pooled across `reps`.
double ladder_capacity(const WorkloadSpec& spec, const Reps& reps) {
  const double limit = static_cast<double>(spec.latency_limit_ns);
  double last_rate = 0.0;
  double last_p99 = 0.0;
  for (std::size_t i = 0; i < spec.rates.size(); ++i) {
    std::vector<double> lat;
    std::uint64_t errors = 0;
    double backlog = 0;
    for (const RepResult* r : reps) {
      const PhaseResult& p = r->phases[i];
      for (const std::int64_t l : p.latencies) lat.push_back(static_cast<double>(l));
      errors += p.errors;
      backlog += static_cast<double>(p.backlog_at_end) / static_cast<double>(reps.size());
    }
    const double rate = spec.rates[i];
    const double p99 = percentile(lat, 99.0);
    const double in_flight = std::max(static_cast<double>(spec.clients), rate * limit / 1e9);
    if (errors > 0 || p99 > limit || backlog > in_flight) {
      if (p99 <= limit || p99 <= last_p99) return last_rate;
      return last_rate + (rate - last_rate) * (limit - last_p99) / (p99 - last_p99);
    }
    last_rate = rate;
    last_p99 = p99;
  }
  return last_rate;
}

struct SimMetrics {
  double p50_us = 0, p99_us = 0, goodput = 0, capacity = 0, outage_ms = 0, events_per_req = 0;
};

SimMetrics sim_metrics(const WorkloadSpec& spec, const Reps& reps) {
  SimMetrics m;
  std::vector<double> lat, gaps, outages;
  double done_in_window = 0, window_ns = 0, events = 0, ok = 0;
  for (const RepResult* r : reps) {
    std::map<int, std::vector<std::int64_t>> done_by_phase;
    for (const Outcome& o : r->outcomes) {
      if (!o.ok) continue;
      ok += 1;
      if (!o.in_latency) continue;
      lat.push_back(static_cast<double>(o.done_sim - o.arrival_sim));
      done_by_phase[o.phase].push_back(o.done_sim);
    }
    for (auto& [phase, done] : done_by_phase) {
      std::sort(done.begin(), done.end());
      for (std::size_t i = 1; i < done.size(); ++i) {
        gaps.push_back(static_cast<double>(done[i] - done[i - 1]));
      }
    }
    if (r->crash_sim >= 0) {
      // Crash to the first correct reply to a request that arrived after it.
      std::int64_t first = -1;
      for (const Outcome& o : r->outcomes) {
        if (o.ok && o.arrival_sim >= r->crash_sim && (first < 0 || o.done_sim < first)) {
          first = o.done_sim;
        }
      }
      if (first >= 0) outages.push_back(static_cast<double>(first - r->crash_sim));
    }
    for (const PhaseResult& p : r->phases) done_in_window += static_cast<double>(p.done_in_window);
    window_ns += spec.open_loop ? static_cast<double>(spec.window_ns * static_cast<std::int64_t>(
                                                                           r->phases.size()))
                                : static_cast<double>(r->measured_sim_ns);
    events += static_cast<double>(r->events);
  }
  m.p50_us = percentile(lat, 50.0) / 1e3;
  m.p99_us = percentile(lat, 99.0) / 1e3;
  m.goodput = window_ns > 0 ? done_in_window / (window_ns / 1e9) : 0.0;
  m.capacity = spec.latency_limit_ns > 0 ? ladder_capacity(spec, reps) : m.goodput;
  // Without a crash: the 99th percentile of the pauses between replies.
  m.outage_ms = (spec.crash_at_ns >= 0 ? median(outages) : percentile(gaps, 99.0)) / 1e6;
  m.events_per_req = ok > 0 ? events / ok : 0.0;
  return m;
}

// ---------------------------------------------------------------------------
// End-to-end metrics (untraced repetitions)
// ---------------------------------------------------------------------------

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The host-time end-to-end metrics, in reference-machine units or, with
/// `reference` false, as measured on this host.
std::vector<Metric> host_metrics(const Reps& untraced, bool reference) {
  auto us = [reference](const RepResult& r, double host_ns) {
    return reference ? ref_us(r, host_ns) : host_ns / 1e3;
  };
  // Open loop: the serial probe; closed loop: the measured requests.
  auto host_latency = [&us](const RepResult& r, double p) {
    std::vector<double> v;
    for (const Outcome& o : r.probe.empty() ? r.outcomes : r.probe) {
      if (o.ok) v.push_back(us(r, static_cast<double>(o.done_host - o.issue_host)));
    }
    return percentile(std::move(v), p);
  };
  // Over the phases in the latency percentiles: past the knee the backlog
  // changes batch sizes, and with them the cost per request.
  auto throughput = [&us](const RepResult& r) {
    double ok = 0, host_ns = 0;
    for (const PhaseResult& p : r.phases) {
      if (!p.in_latency) continue;
      ok += static_cast<double>(p.latencies.size());
      host_ns += static_cast<double>(p.host_ns);
    }
    return ok / (us(r, host_ns) / 1e6);
  };
  return {
      {"throughput_rps", median_over(untraced, throughput), "req/s"},
      {"host_latency_p50_us",
       median_over(untraced, [&](const RepResult& r) { return host_latency(r, 50.0); }), "us"},
      {"host_latency_p99_us",
       median_over(untraced, [&](const RepResult& r) { return host_latency(r, 99.0); }), "us"},
      {"setup_s",
       median_over(untraced,
                   [&](const RepResult& r) { return us(r, static_cast<double>(r.setup_ns)) / 1e6; }),
       "s"},
  };
}

std::vector<Metric> end_to_end(const SimMetrics& sim, const Reps& untraced) {
  std::vector<Metric> metrics = host_metrics(untraced, true);
  metrics.insert(metrics.end(), {
                                    {"sim_latency_p50_us", sim.p50_us, "us"},
                                    {"sim_latency_p99_us", sim.p99_us, "us"},
                                    {"sim_goodput_rps", sim.goodput, "req/s"},
                                    {"sim_capacity_rps", sim.capacity, "req/s"},
                                    {"sim_outage_ms", sim.outage_ms, "ms"},
                                    {"peak_rss_mib", peak_rss_mib(), "MiB"},
                                });
  return metrics;
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced repetitions)
// ---------------------------------------------------------------------------

bool complete(const Stages& s) {
  return s.sent >= 0 && s.pre_prepare >= 0 && s.prepared >= 0 && s.executed >= 0 &&
         s.appended >= 0 && s.decided >= 0;
}

struct Outcomes {
  std::uint64_t attempted = 0, errors = 0, starved = 0;
};

/// `sample` holds one traced repetition per sub-seed: counts and sim-time
/// stages pool over it. Host times are medians over every repetition.
std::vector<Metric> per_layer(const Inputs& inputs,
                              const Reps& untraced, const Reps& traced, const Reps& sample,
                              std::uint64_t seed, const Outcomes& outcomes) {
  const RepResult& t = *sample.front();
  const double replay_scale = kReferenceKernelNs / static_cast<double>(calibration_kernel_ns());
  ReplayCosts replay = replay_costs(inputs, t, seed);
  for (double* c : {&replay.seal_us, &replay.open_us, &replay.mac_us, &replay.marshal_us,
                    &replay.unmarshal_us, &replay.vote_add_us}) {
    *c *= replay_scale;
  }
  double ok = 0, events = 0;
  std::map<std::string, double> sum, peak;
  for (const RepResult* r : sample) {
    ok += static_cast<double>(correct_replies(*r));
    events += static_cast<double>(r->events);
    for (const auto& [key, value] : r->counts) {
      sum[key] += value;
      peak[key] = std::max(peak[key], value);
    }
  }
  const double n_sample = static_cast<double>(sample.size());
  auto total = [&sum](const std::string& key) { return sum[key]; };
  auto pooled = [&](const std::string& key) { return ok == 0 ? 0.0 : total(key) / ok; };
  auto host_us_per_req = [](const Reps& reps, const std::function<double(const RepResult&)>& ns) {
    return median_over(reps, [&](const RepResult& r) { return per_req(r, ref_us(r, ns(r))); });
  };
  auto role_us = [&](Role role) {
    return host_us_per_req(traced, [role](const RepResult& r) {
      return static_cast<double>(r.roles.ns[static_cast<std::size_t>(role)]);
    });
  };
  auto measured = [](const RepResult& r) { return static_cast<double>(r.measured_host_ns); };
  const double untraced_us = host_us_per_req(untraced, measured);
  const double traced_us = host_us_per_req(traced, measured);

  std::vector<double> order, vote, queue_wait;
  double ballots = 0, decided = 0, covered = 0;
  for (const RepResult* r : sample) {
    for (std::size_t i = 0; i < r->outcomes.size(); ++i) {
      const Outcome& o = r->outcomes[i];
      const auto it = r->stages.find(r->trace_of_outcome[i]);
      if (!o.ok || it == r->stages.end()) continue;
      const Stages& s = it->second;
      if (s.sent >= 0) queue_wait.push_back(static_cast<double>(s.sent - o.arrival_sim) / 1e3);
      if (s.sent >= 0 && s.executed >= 0) {
        order.push_back(static_cast<double>(s.executed - s.sent) / 1e3);
      }
      if (s.vote_open >= 0 && s.decided >= 0) {
        vote.push_back(static_cast<double>(s.decided - s.vote_open) / 1e3);
        ballots += static_cast<double>(s.ballots);
        ++decided;
      }
      covered += complete(s) ? 1 : 0;
    }
  }
  double new_views = 0;
  for (const RepResult* r : sample) new_views += static_cast<double>(r->new_views);
  return {
      {"common.copies_per_req", pooled("buf.copies"), "count"},
      {"common.bytes_copied_per_req", pooled("buf.bytes_copied"), "B"},
      {"crypto.seal_us", replay.seal_us, "us"},
      {"crypto.open_us", replay.open_us, "us"},
      {"crypto.mac_us", replay.mac_us, "us"},
      {"net.packets_per_req", pooled("net.packets"), "count"},
      {"net.bytes_per_req", pooled("net.bytes"), "B"},
      {"net.events_per_req", ok == 0 ? 0.0 : events / ok, "count"},
      {"net.host_ns_per_event", median_over(traced, [](const RepResult& r) {
         return r.roles.steps == 0 ? 0.0
                                   : ref_us(r, static_cast<double>(r.roles.step_ns)) * 1e3 /
                                         static_cast<double>(r.roles.steps);
       }),
       "ns"},
      {"cdr.marshal_us", replay.marshal_us, "us"},
      {"cdr.unmarshal_us", replay.unmarshal_us, "us"},
      {"bft.host_us_per_req", host_us_per_req(traced, [](const RepResult& r) {
         return static_cast<double>(r.roles.ns[kElementBft] - r.roles.servant_in_bft_ns);
       }),
       "us"},
      {"bft.macs_per_req", pooled("bft.macs"), "count"},
      {"bft.msgs_per_req", pooled("bft.msgs"), "count"},
      {"bft.order_sim_us_p50", percentile(order, 50.0), "us"},
      {"bft.order_sim_us_p99", percentile(order, 99.0), "us"},
      {"bft.view_changes", new_views / n_sample, "count"},
      // Formation off: every slot carries one request and nothing is held.
      {"batch.size_mean", total("batch.slots") > 0 ? total("batch.entries") / total("batch.slots") : 1.0,
       "count"},
      {"batch.hold_us_p50", total("batch.hold_ns_p50") / n_sample / 1e3, "us"},
      {"itdos.smiop_host_us_per_req", role_us(kClientSmiop), "us"},
      {"itdos.element_smiop_host_us_per_req", role_us(kElementSmiop), "us"},
      {"itdos.consume_host_us_per_req", role_us(kElementOrb), "us"},
      {"itdos.vote_sim_us_p50", percentile(vote, 50.0), "us"},
      {"itdos.vote_add_us", replay.vote_add_us, "us"},
      {"itdos.ballots_per_decide", decided > 0 ? ballots / decided : 0.0, "count"},
      {"itdos.queue_depth_peak", peak["itdos.queue_depth_peak"], "count"},
      {"itdos.admission_sheds", total("itdos.admission_sheds"), "count"},
      {"itdos.vote_timeouts", total("itdos.vote_timeouts"), "count"},
      {"itdos.gm_host_ms_setup", median_over(traced, [](const RepResult& r) {
         return ref_us(r, static_cast<double>(r.gm_setup_ns)) / 1e3;
       }),
       "ms"},
      {"orb.servant_us", median_over(traced, [](const RepResult& r) {
         // Servant time of the measured phase over its dispatches.
         const double n = r.counts.at("orb.dispatches_per_invocation") *
                          static_cast<double>(correct_replies(r));
         return n == 0 ? 0.0 : ref_us(r, static_cast<double>(r.roles.servant_ns)) / n;
       }),
       "us"},
      {"orb.dispatches_per_req", total("orb.dispatches_per_invocation") / n_sample, "count"},
      {"load.client_queue_us_p50", percentile(queue_wait, 50.0), "us"},
      {"load.starved", static_cast<double>(outcomes.starved), "count"},
      {"telemetry.trace_overhead_pct", (traced_us - untraced_us) / untraced_us * 100.0, "%"},
      {"telemetry.stage_coverage", ok == 0 ? 0.0 : covered / ok, "ratio"},
      {"host.untraced_us_per_req", untraced_us, "us"},
      {"host.traced_us_per_req", traced_us, "us"},
      {"host.client_invoke_us_per_req", role_us(kClientInvoke), "us"},
      {"host.timer_us_per_req", role_us(kTimer), "us"},
      {"host.unattributed_us_per_req", host_us_per_req(traced, [](const RepResult& r) {
         return static_cast<double>(r.measured_host_ns - r.roles.step_ns -
                                    r.roles.ns[kClientInvoke]);
       }),
       "us"},
      {"error_rate",
       outcomes.attempted == 0
           ? 0.0
           : static_cast<double>(outcomes.errors) / static_cast<double>(outcomes.attempted),
       "ratio"},
  };
}

/// Per-role and per-message-kind host self time, and the ten slowest
/// requests with their sim-time stage breakdown.
void print_trace_report(const RepResult& t) {
  const double ok = static_cast<double>(correct_replies(t));
  const double total = static_cast<double>(t.measured_host_ns);
  auto row = [&](const char* indent, const std::string& name, double events, double ns) {
    std::printf("# %s%-*s %12.2f %12.2f %7.1f%%\n", indent,
                static_cast<int>(22 - std::strlen(indent)), name.c_str(), events / ok,
                ref_us(t, ns) / ok, 100.0 * ns / total);
  };
  std::printf("# host self time per correct reply, reference-machine us (traced repetition)\n");
  std::printf("# %-22s %12s %12s %8s\n", "role / message kind", "events/req", "host_us/req",
              "share");
  for (int role = 0; role < kRoleCount; ++role) {
    const auto r = static_cast<std::size_t>(role);
    if (t.roles.events[r] == 0) continue;
    row("", role_name(role), static_cast<double>(t.roles.events[r]),
        static_cast<double>(t.roles.ns[r]));
    for (int kind = 1; kind < kKindCount; ++kind) {
      const auto k = static_cast<std::size_t>(kind);
      if (t.roles.kind_events[r][k] == 0) continue;
      row("  ", kind_name(kind), static_cast<double>(t.roles.kind_events[r][k]),
          static_cast<double>(t.roles.kind_ns[r][k]));
    }
  }
  row("", "unattributed", 0,
      static_cast<double>(t.measured_host_ns - t.roles.step_ns - t.roles.ns[kClientInvoke]));
  row("", "(servant body)", 0, static_cast<double>(t.roles.servant_ns));

  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < t.outcomes.size(); ++i) {
    if (t.outcomes[i].ok) order.push_back(i);
  }
  auto latency = [&t](std::size_t i) { return t.outcomes[i].done_sim - t.outcomes[i].arrival_sim; };
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return latency(a) != latency(b) ? latency(a) > latency(b) : a < b;
  });
  if (order.size() > 10) order.resize(10);
  std::printf("# 10 slowest requests, sim us: total = queue + propose + prepare + commit/execute"
              " + deliver/vote (- = stage not traced)\n");
  for (const std::size_t i : order) {
    const Outcome& o = t.outcomes[i];
    const auto it = t.stages.find(t.trace_of_outcome[i]);
    const Stages s = it == t.stages.end() ? Stages{} : it->second;
    auto span = [](std::int64_t from, std::int64_t to) {
      char buf[32];
      if (from < 0 || to < 0) return std::string("-");
      std::snprintf(buf, sizeof(buf), "%.1f", static_cast<double>(to - from) / 1e3);
      return std::string(buf);
    };
    std::printf("#   req %-5zu client %d rid %-6" PRIu64 " total %9.1f = %s + %s + %s + %s + %s\n",
                i, o.client, o.rid, static_cast<double>(latency(i)) / 1e3,
                span(o.arrival_sim, s.sent).c_str(), span(s.sent, s.pre_prepare).c_str(),
                span(s.pre_prepare, s.prepared).c_str(), span(s.prepared, s.executed).c_str(),
                span(s.executed, o.done_sim).c_str());
  }
}

void print_result(bool correct, const Outcomes& outcomes, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", outcomes.attempted, outcomes.errors);
  const char* sep = "";
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

std::uint64_t sub_seed(std::uint64_t seed, int sub) {
  return seed * kSubSeeds + static_cast<std::uint64_t>(sub);
}

int run(const Args& args) {
  std::vector<WorkloadSpec> specs = workload_table();
  const auto it = std::find_if(specs.begin(), specs.end(),
                               [&](const WorkloadSpec& s) { return s.name == args.workload; });
  if (it == specs.end()) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  WorkloadSpec spec = *it;
  spec.corrupt_ranks = args.corrupt_ranks;
  std::vector<Inputs> inputs;
  for (int s = 0; s < kSubSeeds; ++s) inputs.push_back(make_inputs(spec, sub_seed(args.seed, s)));

  // Repeat until the time is used up, and at least once per sub-seed (in a
  // traced run: once untraced and once traced per sub-seed, interleaved).
  const std::int64_t start = host_now_ns();
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  const std::size_t per_sub = args.trace ? 2 : 1;
  const std::size_t min_reps = per_sub * kSubSeeds;
  std::vector<RepResult> reps;
  std::int64_t longest = 0;
  while (reps.size() < min_reps || host_now_ns() - start + longest <= budget) {
    const std::size_t i = reps.size();
    const int sub = static_cast<int>((i / per_sub) % kSubSeeds);
    const bool traced = args.trace && i % 2 == 1;
    const std::int64_t t0 = host_now_ns();
    std::vector<double> kernel;
    for (int k = 0; k < 2; ++k) kernel.push_back(static_cast<double>(calibration_kernel_ns()));
    RepResult rep = run_rep(spec, inputs[static_cast<std::size_t>(sub)],
                            sub_seed(args.seed, sub), traced);
    for (int k = 0; k < 2; ++k) kernel.push_back(static_cast<double>(calibration_kernel_ns()));
    rep.sub_seed = sub;
    rep.scale = kReferenceKernelNs / median(kernel);
    reps.push_back(std::move(rep));
    longest = std::max(longest, host_now_ns() - t0);
  }

  Reps untraced, traced, sim_reps, traced_sample;
  std::map<int, std::uint64_t> fingerprint;
  std::vector<std::string> problems;
  for (const RepResult& r : reps) {
    (r.traced ? traced : untraced).push_back(&r);
    for (const std::string& p : r.problems) problems.push_back(p);
    const auto [known, first] = fingerprint.emplace(r.sub_seed, r.fingerprint);
    if (first && !r.traced) sim_reps.push_back(&r);
    if (r.traced && traced_sample.size() < kSubSeeds &&
        (traced_sample.empty() || traced_sample.back()->sub_seed != r.sub_seed)) {
      traced_sample.push_back(&r);
    }
    if (known->second != r.fingerprint) {
      problems.push_back(r.traced ? "traced repetition perturbed the simulation"
                                  : "repetitions of one seed diverged");
    }
  }
  // Outcome counts over one repetition per sub-seed: the requests the
  // sim-time metrics describe.
  Outcomes outcomes;
  for (const RepResult* r : sim_reps) {
    for (const Outcome& o : r->outcomes) {
      ++outcomes.attempted;
      outcomes.errors += o.ok ? 0 : 1;
      outcomes.starved += o.starved ? 1 : 0;
    }
  }

  const SimMetrics sim = sim_metrics(spec, sim_reps);
  std::printf("# workload %s seed %" PRIu64 ": %zu repetitions (%zu traced) over %d sub-seeds, %" PRIu64
              " requests in the sim-time sample\n",
              spec.name.c_str(), args.seed, reps.size(), traced.size(), kSubSeeds,
              outcomes.attempted);
  std::printf("# sim-check {\"sim_latency_p50_us\": %.17g, \"sim_latency_p99_us\": %.17g, "
              "\"sim_goodput_rps\": %.17g, \"sim_capacity_rps\": %.17g, \"sim_outage_ms\": "
              "%.17g, \"net.events_per_req\": %.17g}\n",
              sim.p50_us, sim.p99_us, sim.goodput, sim.capacity, sim.outage_ms,
              sim.events_per_req);
  std::printf("# host-raw");
  const char* sep = " {";
  for (const Metric& m : host_metrics(untraced, false)) {
    std::printf("%s\"%s\": %.17g", sep, m.name.c_str(), m.value);
    sep = ", ";
  }
  std::printf("}\n");
  for (const RepResult& r : reps) {
    std::printf("# repetition %s sub-seed %d: set-up %.2f ms, measured %.1f ms host"
                " (x%.3f to reference)\n",
                r.traced ? "traced  " : "untraced", r.sub_seed,
                static_cast<double>(r.setup_ns) / 1e6,
                static_cast<double>(r.measured_host_ns) / 1e6, r.scale);
  }
  if (spec.open_loop) {
    for (std::size_t i = 0; i < spec.rates.size(); ++i) {
      std::vector<double> lat;
      std::uint64_t attempted = 0, errors = 0, backlog = 0;
      for (const RepResult* r : sim_reps) {
        const PhaseResult& p = r->phases[i];
        for (const std::int64_t l : p.latencies) lat.push_back(static_cast<double>(l));
        attempted += p.attempted;
        errors += p.errors;
        backlog = std::max(backlog, p.backlog_at_end);
      }
      std::printf("# offered %6.0f req/s: %5" PRIu64 " requests, %" PRIu64
                  " errors, sim p50 %8.1f us, p99 %9.1f us, max backlog at window end %" PRIu64
                  "\n",
                  spec.rates[i], attempted, errors, percentile(lat, 50.0) / 1e3,
                  percentile(lat, 99.0) / 1e3, backlog);
    }
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    print_trace_report(*traced.front());
    metrics = per_layer(inputs.front(), untraced, traced, traced_sample, args.seed, outcomes);
  } else {
    metrics = end_to_end(sim, untraced);
  }
  std::map<std::string, int> distinct;
  for (const std::string& p : problems) ++distinct[p];
  for (const auto& [p, n] : distinct) std::fprintf(stderr, "perfbench: %s (x%d)\n", p.c_str(), n);
  print_result(problems.empty(), outcomes, metrics);
  std::fflush(stdout);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace itdos::perfbench

int main(int argc, char** argv) {
  itdos::set_log_level(itdos::LogLevel::kError);
  itdos::perfbench::Args args;
  if (!itdos::perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--corrupt-elements <n>]\n",
                 argv[0]);
    return 2;
  }
  return itdos::perfbench::run(args);
}
