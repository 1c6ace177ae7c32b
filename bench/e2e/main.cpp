/// tram_e2e: the repository benchmark driver (see README.md).
///
///   tram_e2e --workload=NAME --seed=N --json=OUT [--seconds=S]
///            [--trace-dir=DIR] [--smoke] [--check]
///
/// One workload per process, so the memory figures belong to that
/// workload. A run: one construction, one warm-up trial (reported, not
/// gated), timed trials until --seconds have passed, each after a batch of
/// constructions of a second instance (setup_s is their median), and, with
/// --trace-dir, one more trial with the tracing layer on. End-to-end
/// metrics come from the untraced trials only; the traced trial gives the
/// per-layer time split and the tracing overhead.
///
/// Exit codes: 0 success, 1 a run or --check failure, 2 a usage error.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/timebase.hpp"
#include "workloads.hpp"

#ifndef TRAM_E2E_BUILD_TYPE
#define TRAM_E2E_BUILD_TYPE "unknown"
#endif
#ifndef TRAM_E2E_REPO_ROOT
#define TRAM_E2E_REPO_ROOT ""
#endif

namespace tram::e2e {
namespace {

/// A set-up takes about a millisecond, most of it writing freshly allocated
/// memory, and on a shared host the speed of that drifts from one second
/// to the next. setup_s is therefore the median of batches spread over the
/// whole run, one batch before the warm-up trial and one before every timed
/// trial, with the constructions of a batch 20 ms apart.
constexpr std::size_t kSetupsPerBatch = 10;
constexpr std::chrono::milliseconds kSetupGap{20};
constexpr std::size_t kMinTimedTrials = 3;
constexpr std::uint64_t kTracedTrial = (1 << 20) - 1;
#if TRAM_TRACE
constexpr bool kTraceCompiled = true;
#else
constexpr bool kTraceCompiled = false;
#endif

// ---------------------------------------------------------------------
// metrics and JSON

enum class Better { kHigher, kLower };
constexpr Better kHigher = Better::kHigher;
constexpr Better kLower = Better::kLower;

struct Metric {
  std::string name;
  std::string unit;
  Better better = kLower;
  double value = NAN;
  /// Spread across trials, when the value is a median of several; for a
  /// pooled percentile only n (the sample count) is set.
  Quartiles spread;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double ratio(std::uint64_t num, std::uint64_t den) {
  return ratio(static_cast<double>(num), static_cast<double>(den));
}
double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

Metric metric(const char* name, const char* unit, Better better,
              double value) {
  return {name, unit, better, value, {}};
}
Metric count(const char* name, const char* unit, std::uint64_t value) {
  return metric(name, unit, kLower, static_cast<double>(value));
}

Metric median_of(std::string name, std::string unit, Better better,
                 const std::vector<double>& samples) {
  Metric m{std::move(name), std::move(unit), better, NAN, quartiles(samples)};
  m.value = m.spread.median;
  return m;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    s += (i ? ",\n    " : "\n    ") + str(m.name) + ": {\"value\": " +
         num(m.value) + ", \"unit\": " + str(m.unit) + ", \"better\": \"" +
         (m.better == kHigher ? "higher" : "lower") + "\"";
    if (m.spread.n > 0) {
      if (std::isfinite(m.spread.q1)) {
        s += ", \"q1\": " + num(m.spread.q1) + ", \"q3\": " + num(m.spread.q3);
      }
      s += ", \"n\": " + std::to_string(m.spread.n);
    }
    s += "}";
  }
  return s + "\n  }";
}

std::string list_json(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
  return s + "]";
}

// ---------------------------------------------------------------------
// host stamp

struct Host {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string loadavg;  // "1m 5m 15m"
  /// CPU time the hypervisor gave other guests while this VM's CPUs wanted
  /// to run, summed over CPUs since boot (/proc/stat "steal"). Its growth
  /// over a run marks the runs whose naps and wake-ups it stretched.
  double steal_s = NAN;
};

std::string first_line_with(const char* path, const std::string& key) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key, 0) == 0) return line;
  }
  return {};
}

Host host_now() {
  Host h;
  h.nproc = std::thread::hardware_concurrency();
  const std::string model = first_line_with("/proc/cpuinfo", "model name");
  if (const auto colon = model.find(':'); colon != std::string::npos) {
    h.cpu_model = model.substr(model.find_first_not_of(" \t", colon + 1));
  }
  std::ifstream in("/proc/loadavg");
  std::string a, b, c;
  if (in >> a >> b >> c) h.loadavg = a + " " + b + " " + c;
  std::istringstream cpu(first_line_with("/proc/stat", "cpu "));
  std::string label;
  double ticks[8];
  if (cpu >> label >> ticks[0] >> ticks[1] >> ticks[2] >> ticks[3] >>
      ticks[4] >> ticks[5] >> ticks[6] >> ticks[7]) {
    h.steal_s = ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  return h;
}

/// HEAD of the repository this driver was built from, or "" when that
/// tree is not a git checkout of its own (a plain source export).
std::string git_sha() {
  const std::string root = TRAM_E2E_REPO_ROOT;
  if (root.empty()) return {};
  const std::string cmd =
      "git -C '" + root + "' rev-parse --show-toplevel HEAD 2>/dev/null";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return {};
  char top[4096] = {}, sha[128] = {};
  const bool ok = std::fgets(top, sizeof top, p) != nullptr &&
                  std::fgets(sha, sizeof sha, p) != nullptr;
  pclose(p);
  if (!ok) return {};
  std::string t(top), s(sha);
  while (!t.empty() && t.back() == '\n') t.pop_back();
  while (!s.empty() && s.back() == '\n') s.pop_back();
  return t == root ? s : std::string();
}

/// Peak resident set of this process so far, MiB (VmHWM).
double peak_rss_mb() {
  const std::string line = first_line_with("/proc/self/status", "VmHWM:");
  if (line.empty()) return NAN;
  return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
}

// ---------------------------------------------------------------------
// the untraced part of a run

struct Options {
  std::string workload;
  std::int64_t seed = 1;
  double seconds = 10.0;
  std::string json;
  std::string trace_dir;
  bool smoke = false;
  bool check = false;
};

struct Measured {
  std::vector<double> setup_s, inputs_s, machine_s, app_s;
  double setup_rss_mb = NAN;
  double end_rss_mb = NAN;
  Trial warmup;
  std::vector<Trial> timed;

  /// One batch of set-up samples, from a fresh instance that is dropped
  /// again before the next trial.
  void sample_setup(const std::function<std::unique_ptr<Workload>()>& make) {
    const std::unique_ptr<Workload> probe = make();
    for (std::size_t i = 0; i < kSetupsPerBatch; ++i) {
      std::this_thread::sleep_for(kSetupGap);
      const SetupSplit s = probe->construct();
      setup_s.push_back(s.total());
      inputs_s.push_back(s.inputs_s);
      machine_s.push_back(s.machine_s);
      app_s.push_back(s.app_s);
    }
  }
};

Measured measure(Workload& w, double seconds,
                 const std::function<std::unique_ptr<Workload>()>& make,
                 const std::function<std::uint64_t()>& next_seed) {
  Measured m;
  w.construct();
  m.setup_rss_mb = peak_rss_mb();
  m.sample_setup(make);
  m.warmup = w.run(next_seed(), Phase::kWarmup);
  const std::uint64_t t0 = util::now_ns();
  while (m.timed.size() < kMinTimedTrials ||
         static_cast<double>(util::now_ns() - t0) * 1e-9 < seconds) {
    m.sample_setup(make);
    m.timed.push_back(w.run(next_seed(), Phase::kTimed));
  }
  m.end_rss_mb = peak_rss_mb();
  return m;
}

/// Counters summed (or maxed) over the timed trials.
struct Sums {
  core::WorkerTramStats tram;
  std::uint64_t fabric_messages = 0, fabric_bytes = 0, forwarded = 0;
  std::uint64_t runtime_messages = 0;
  core::FaultStats fault;
  std::uint64_t acquires = 0, hits = 0, heap_fallbacks = 0;
  std::uint64_t max_reserved = 0;
  FineHist latency, late, req_path, resp_path;
  std::vector<double> items_per_s, wall, pool_peak_mb;
};

Sums sum_trials(const std::vector<Trial>& trials) {
  Sums s;
  for (const Trial& t : trials) {
    s.tram.merge(t.tram);
    s.fabric_messages += t.run.fabric_messages;
    s.fabric_bytes += t.run.fabric_bytes;
    s.forwarded += t.run.forwarded_messages;
    s.runtime_messages += t.run.runtime_messages;
    s.fault.retransmits += t.fault.retransmits;
    s.fault.fast_retransmits += t.fault.fast_retransmits;
    s.fault.rto_fires += t.fault.rto_fires;
    s.fault.rtx_bytes += t.fault.rtx_bytes;
    s.fault.acks_sent += t.fault.acks_sent;
    s.fault.dup_drops += t.fault.dup_drops;
    s.fault.max_inflight_msgs =
        std::max(s.fault.max_inflight_msgs, t.fault.max_inflight_msgs);
    s.acquires += t.pool.acquires;
    s.hits += t.pool.pool_hits;
    s.heap_fallbacks += t.pool.heap_fallbacks;
    s.max_reserved = std::max(s.max_reserved, t.max_reserved_buffers);
    s.latency.merge(t.latency);
    s.late.merge(t.late);
    s.req_path.merge(t.req_path);
    s.resp_path.merge(t.resp_path);
    s.items_per_s.push_back(ratio(static_cast<double>(t.items), t.wall_s));
    s.wall.push_back(t.wall_s);
    s.pool_peak_mb.push_back(mib(t.pool.peak_outstanding_bytes));
  }
  return s;
}

std::vector<Metric> end_to_end(const Measured& m, const Sums& s) {
  const FineHist& lat = s.latency;
  std::vector<Metric> e2e = {
      metric("latency_p50_us", "us", kLower, lat.percentile(0.50) * 1e-3),
      metric("latency_p90_us", "us", kLower, lat.percentile(0.90) * 1e-3),
      median_of("setup_s", "s", kLower, m.setup_s),
      metric("setup_rss_mb", "MiB", kLower, m.setup_rss_mb),
  };
  e2e[0].spread.n = e2e[1].spread.n = lat.count();
  return e2e;
}

std::vector<Metric> layer_metrics(const Workload& w, const Measured& m,
                                  const Sums& s) {
  const rt::RuntimeConfig& cfg = w.machine().config();
  const auto& tram = s.tram;
  const std::uint64_t msgs = tram.msgs_shipped;
  const std::uint64_t inserted = tram.items_inserted;
  // Spin the cost model burns per message and per byte, computed from the
  // counts (not measured), over the time of the threads that burn it: one
  // comm thread per process.
  const double spin_s =
      (static_cast<double>(s.fabric_messages) *
           (cfg.comm_per_msg_send_ns + cfg.comm_per_msg_recv_ns) +
       static_cast<double>(s.fabric_bytes) * 2.0 * cfg.comm_per_byte_ns) *
      1e-9;
  const double pump_s = w.machine().topology().procs() *
                        std::accumulate(s.wall.begin(), s.wall.end(), 0.0);
  // A latency segment's share of the latency.
  auto share = [&s](const FineHist& seg, double q) {
    return ratio(seg.percentile(q), s.latency.percentile(q));
  };
  const auto& f = s.fault;
  return {
      metric("core.items_per_msg", "items", kHigher,
             ratio(tram.occupancy_at_ship.sum(), static_cast<double>(msgs))),
      metric("core.flush_msg_frac", "fraction", kLower,
             ratio(tram.flush_msgs, msgs)),
      metric("core.msgs_per_kitem", "count", kLower,
             1000.0 * ratio(msgs, inserted)),
      count("core.max_reserved_buffers", "count", s.max_reserved),
      metric("core.req_path_frac", "fraction", kLower,
             share(s.req_path, 0.50)),
      metric("core.resp_path_frac", "fraction", kLower,
             share(s.resp_path, 0.50)),
      metric("route.forwarded_frac", "fraction", kLower,
             ratio(s.forwarded, s.fabric_messages)),
      metric("route.sorted_msg_frac", "fraction", kHigher,
             ratio(tram.routed_sorted_msgs, msgs)),
      count("route.fwd_copy_bytes", "bytes", tram.routed_forward_copy_bytes),
      count("route.max_staged_fwd_bytes", "bytes", tram.max_staged_fwd_bytes),
      metric("runtime.runtime_msgs_per_item", "count", kLower,
             ratio(s.runtime_messages, inserted)),
      metric("runtime.generator_late_frac", "fraction", kLower,
             share(s.late, 0.99)),
      median_of("runtime.machine_ctor_s", "s", kLower, m.machine_s),
      metric("net.fabric_bytes_per_item", "bytes", kLower,
             ratio(s.fabric_bytes, inserted)),
      metric("net.modeled_spin_frac", "fraction", kLower,
             ratio(spin_s, pump_s)),
      metric("fault.retransmits_per_kmsg", "count", kLower,
             1000.0 * ratio(f.retransmits, s.fabric_messages)),
      metric("fault.fast_rtx_frac", "fraction", kHigher,
             ratio(f.fast_retransmits, f.retransmits)),
      count("fault.rto_fires", "count", f.rto_fires),
      metric("fault.rtx_bytes_frac", "fraction", kLower,
             ratio(f.rtx_bytes, s.fabric_bytes)),
      metric("fault.acks_per_msg", "count", kLower,
             ratio(f.acks_sent, s.fabric_messages)),
      count("fault.dup_drops", "count", f.dup_drops),
      metric("fault.max_inflight_msgs", "count", kHigher,
             static_cast<double>(f.max_inflight_msgs)),
      metric("util.pool_hit_frac", "fraction", kHigher,
             ratio(s.hits, s.acquires)),
      count("util.heap_fallbacks", "count", s.heap_fallbacks),
      median_of("util.pool_peak_mb", "MiB", kLower, s.pool_peak_mb),
      median_of("apps.inputs_s", "s", kLower, m.inputs_s),
      median_of("apps.ctor_s", "s", kLower, m.app_s),
      median_of("apps.run_s", "s", kLower, s.wall),
      metric("apps.cold_run_s", "s", kLower, m.warmup.wall_s),
  };
}

// ---------------------------------------------------------------------
// traced pass

struct ThreadTime {
  std::string name;
  double busy_s = 0.0;      // worker-busy spans (workers) / pump spans (comm)
  double rebucket_s = 0.0;  // rebucket spans inside the busy spans
  std::uint64_t spans = 0;
  std::uint64_t events = 0;
};

struct TracedPass {
  Trial trial;
  std::uint64_t start_ns = 0;
  std::size_t ring_capacity = 0;
  std::uint64_t dropped = 0;
  std::vector<ThreadTime> threads;
  double worker_busy_s = 0.0;
  double rebucket_s = 0.0;
  double comm_busy_s = 0.0;
  std::uint64_t busy_spans = 0;
  std::uint64_t busy_msgs = 0;
  std::uint64_t last_busy_end_ns = 0;
};

/// Per-thread and per-layer sums over the traced trial. No span nests
/// inside a rebucket span, so a rebucket's self time is its duration; a
/// worker's self time is its busy time minus the rebucket time inside it.
void analyse(TracedPass& tp) {
  for (const auto& ring : trace::snapshot_rings()) {
    ThreadTime tt;
    tt.name = ring.name;
    tt.events = ring.events.size();
    for (const trace::Event& e : ring.events) {
      if (e.kind != trace::Kind::kComplete) continue;
      const double dur = static_cast<double>(e.dur_ns) * 1e-9;
      if (e.id == trace::kWorkerBusy) {
        tt.busy_s += dur;
        ++tt.spans;
        tp.worker_busy_s += dur;
        ++tp.busy_spans;
        tp.busy_msgs += e.a0;
        tp.last_busy_end_ns =
            std::max(tp.last_busy_end_ns, e.ts_ns + e.dur_ns);
      } else if (e.id == trace::kRebucket) {
        tt.rebucket_s += dur;
        tp.rebucket_s += dur;
      } else if (e.id == trace::kCommPump) {
        tt.busy_s += dur;
        ++tt.spans;
        tp.comm_busy_s += dur;
      }
    }
    tp.threads.push_back(std::move(tt));
  }
}

/// One trial with tracing on, its rings sized from a timed trial so that
/// nothing is overwritten; a trial that still dropped events reruns with
/// rings four times larger.
TracedPass traced_pass(Workload& w, std::uint64_t seed, const Trial& typical) {
  // Busiest ring: one worker's share of the dispatch batches, ships and
  // rebuckets, or the main thread's quiescence polls (one per ~20 us).
  const double per_worker =
      static_cast<double>(typical.run.runtime_messages +
                          typical.tram.msgs_shipped) /
      w.machine().topology().workers();
  const double qd_polls = typical.wall_s / 20e-6;
  std::size_t cap = 1 << 14;
  while (static_cast<double>(cap) < 2.0 * std::max(per_worker, qd_polls)) {
    cap <<= 1;
  }
  TracedPass tp;
  for (int attempt = 0;; ++attempt) {
    trace::clear();
    trace::set_ring_capacity(cap);
    trace::set_enabled(true);
    trace::set_thread_name("main");
    tp.start_ns = util::now_ns();
    tp.trial = w.run(seed, Phase::kTraced);
    trace::set_enabled(false);
    tp.dropped = trace::dropped_events();
    tp.ring_capacity = cap;
    if (tp.dropped == 0 || attempt == 2) break;
    cap *= 4;
  }
  analyse(tp);
  return tp;
}

std::vector<Metric> traced_metrics(const Workload& w, const TracedPass& tp,
                                   const Sums& untraced) {
  const Trial& t = tp.trial;
  const auto& topo = w.machine().topology();
  // Tracing overhead on the median latency (throughput is the offered
  // rate).
  const double overhead = ratio(t.latency.percentile(0.50),
                                untraced.latency.percentile(0.50)) - 1.0;
  const double qd_tail_ms =
      tp.last_busy_end_ns != 0 && t.return_ns > tp.last_busy_end_ns
          ? static_cast<double>(t.return_ns - tp.last_busy_end_ns) * 1e-6
          : NAN;
  return {
      metric("route.rebucket_frac", "fraction", kLower,
             ratio(tp.rebucket_s, tp.worker_busy_s)),
      metric("runtime.worker_busy_frac", "fraction", kLower,
             ratio(tp.worker_busy_s, topo.workers() * t.wall_s)),
      metric("runtime.msgs_per_busy_batch", "count", kHigher,
             ratio(tp.busy_msgs, tp.busy_spans)),
      metric("runtime.qd_tail_ms", "ms", kLower, qd_tail_ms),
      metric("runtime.comm_busy_frac", "fraction", kLower,
             ratio(tp.comm_busy_s, topo.procs() * t.wall_s)),
      metric("trace.overhead_frac", "fraction", kLower, overhead),
      count("trace.dropped_events", "count", tp.dropped),
  };
}

/// Chrome trace events for the benchmark's own spans: the traced trial,
/// and the three latency segments of every 64th request (sharing the
/// request's id). Loads in Perfetto beside the library's trace.
std::string bench_spans_json(const TracedPass& tp) {
  std::ostringstream os;
  auto us = [](std::uint64_t ns) {
    return num(static_cast<double>(ns) * 1e-3);
  };
  os << "[\n  {\"name\": \"traced trial\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": 0, \"ts\": "
     << us(tp.start_ns) << ", \"dur\": " << us(tp.trial.return_ns - tp.start_ns)
     << "}";
  static const char* const kSegments[3] = {"generator late", "request path",
                                           "response path"};
  for (const RequestRecord& r : tp.trial.requests) {
    const std::uint64_t at[4] = {r.due_ns, r.issue_ns, r.serve_ns, r.done_ns};
    for (int i = 0; i < 3; ++i) {
      os << ",\n  {\"name\": \"" << kSegments[i]
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.requester + 1
         << ", \"ts\": " << us(at[i]) << ", \"dur\": " << us(at[i + 1] - at[i])
         << ", \"args\": {\"req\": \"" << r.requester << ":" << r.id
         << "\"}}";
    }
  }
  os << "\n]";
  return os.str();
}

/// <dir>/<workload>.trace.json (the library's spans) and
/// <dir>/<workload>.layers.json (per-thread split, layer metrics, and the
/// benchmark's own spans).
bool write_trace_files(const std::string& dir, const std::string& name,
                       const TracedPass& tp,
                       const std::vector<Metric>& traced) {
  const std::string base = dir + "/" + name;
  if (!trace::write_chrome_json(base + ".trace.json")) return false;
  std::ofstream out(base + ".layers.json");
  out << "{\n\"workload\": " << str(name)
      << ",\n\"traced_wall_s\": " << num(tp.trial.wall_s)
      << ",\n\"ring_capacity\": " << tp.ring_capacity
      << ",\n\"dropped_events\": " << tp.dropped << ",\n\"threads\": [";
  for (std::size_t i = 0; i < tp.threads.size(); ++i) {
    const ThreadTime& th = tp.threads[i];
    out << (i ? ",\n  " : "\n  ") << "{\"name\": " << str(th.name)
        << ", \"busy_s\": " << num(th.busy_s)
        << ", \"rebucket_s\": " << num(th.rebucket_s)
        << ", \"self_s\": " << num(th.busy_s - th.rebucket_s)
        << ", \"busy_frac\": " << num(ratio(th.busy_s, tp.trial.wall_s))
        << ", \"spans\": " << th.spans << ", \"events\": " << th.events
        << "}";
  }
  out << "\n],\n\"layers\": " << metrics_json(traced)
      << ",\n\"traceEvents\": " << bench_spans_json(tp) << "\n}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// the run

/// Values worth reading next to the metrics, never gated.
std::vector<Metric> diagnostics(const Measured& m, const Sums& s) {
  const FineHist& lat = s.latency;
  auto us = [](const FineHist& h, double q) { return h.percentile(q) * 1e-3; };
  return {
      metric("latency_p95_us", "us", kLower, us(lat, 0.95)),
      metric("latency_p99_us", "us", kLower, us(lat, 0.99)),
      metric("latency_p999_us", "us", kLower, us(lat, 0.999)),
      metric("latency_max_us", "us", kLower,
             static_cast<double>(lat.max()) * 1e-3),
      metric("peak_rss_mb", "MiB", kLower, m.end_rss_mb),
      median_of("items_per_s", "1/s", kHigher, s.items_per_s),
      metric("req_path_p50_us", "us", kLower, us(s.req_path, 0.50)),
      metric("resp_path_p50_us", "us", kLower, us(s.resp_path, 0.50)),
      metric("generator_late_p99_us", "us", kLower, us(s.late, 0.99)),
  };
}

int check(const std::vector<Metric>& e2e, const std::vector<Metric>& layer,
          std::uint64_t attempted, std::uint64_t failed) {
  int problems = 0;
  for (const auto* list : {&e2e, &layer}) {
    for (const Metric& m : *list) {
      if (!std::isfinite(m.value)) {
        std::fprintf(stderr, "check: %s is missing or NaN\n", m.name.c_str());
        ++problems;
      }
      if (m.name == "trace.dropped_events" && m.value != 0.0) {
        std::fprintf(stderr, "check: the traced pass dropped %.0f events\n",
                     m.value);
        ++problems;
      }
    }
  }
  if (failed != 0) {
    std::fprintf(stderr, "check: error_rate %llu/%llu > 0\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
    ++problems;
  }
  return problems == 0 ? 0 : 1;
}

int run(const Options& opt, const WorkloadSpec& spec) {
  const Host before = host_now();
  const auto started_unix =
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  // Trial k draws its inputs from (seed, k); the traced trial has an index
  // of its own, so its inputs do not depend on how many trials fit.
  const auto seed = static_cast<std::uint64_t>(opt.seed);
  std::uint64_t trial = 0;
  auto next_seed = [&] { return (seed << 20) ^ trial++; };
  auto make = [&] { return spec.make(seed, opt.smoke); };
  const std::unique_ptr<Workload> w = make();

  const Measured m = measure(*w, opt.seconds, make, next_seed);
  const Sums s = sum_trials(m.timed);
  std::uint64_t attempted = m.warmup.attempted, failed = m.warmup.failed;
  for (const Trial& t : m.timed) {
    attempted += t.attempted;
    failed += t.failed;
  }
  const std::vector<Metric> e2e = end_to_end(m, s);
  std::vector<Metric> layer = layer_metrics(*w, m, s);

  if (!opt.trace_dir.empty()) {
    const TracedPass tp = traced_pass(*w, (seed << 20) ^ kTracedTrial,
                                      m.timed[m.timed.size() / 2]);
    attempted += tp.trial.attempted;
    failed += tp.trial.failed;
    const std::vector<Metric> traced = traced_metrics(*w, tp, s);
    layer.insert(layer.end(), traced.begin(), traced.end());
    if (!write_trace_files(opt.trace_dir, spec.name, tp, traced)) {
      std::fprintf(stderr, "cannot write the trace files into %s\n",
                   opt.trace_dir.c_str());
      return 1;
    }
  }
  const Host after = host_now();

  std::ofstream out(opt.json);
  out << "{\n  \"workload\": " << str(spec.name) << ",\n  \"seed\": "
      << opt.seed << ",\n  \"started_unix\": " << started_unix
      << ",\n  \"seconds\": " << num(opt.seconds)
      << ",\n  \"smoke\": " << (opt.smoke ? "true" : "false")
      << ",\n  \"traced\": " << (opt.trace_dir.empty() ? "false" : "true")
      << ",\n  \"host\": {\"nproc\": " << before.nproc
      << ", \"cpu_model\": " << str(before.cpu_model)
      << ", \"loadavg_before\": " << str(before.loadavg)
      << ", \"loadavg_after\": " << str(after.loadavg)
      << ", \"steal_s\": " << num(after.steal_s - before.steal_s)
      << ", \"build_type\": " << str(TRAM_E2E_BUILD_TYPE)
      << ", \"tram_trace\": " << (kTraceCompiled ? "true" : "false")
      << ", \"git_sha\": " << str(git_sha()) << "}"
      << ",\n  \"correct\": " << (failed == 0 ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"end_to_end\": " << metrics_json(e2e)
      << ",\n  \"per_layer\": " << metrics_json(layer)
      << ",\n  \"detail\": " << metrics_json(diagnostics(m, s))
      << ",\n  \"setup_samples_s\": " << list_json(m.setup_s) << "\n}\n";
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.json.c_str());
    return 1;
  }
  std::printf("%s: %zu timed trials, latency p50 %.4g us p90 %.4g us, "
              "setup %.4g s, %llu/%llu failed -> %s\n",
              spec.name, m.timed.size(), e2e[0].value, e2e[1].value,
              e2e[2].value,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted), opt.json.c_str());
  return opt.check ? check(e2e, layer, attempted, failed) : 0;
}

}  // namespace
}  // namespace tram::e2e

int main(int argc, char** argv) {
  using namespace tram::e2e;
  Options opt;
  std::string names;
  for (const WorkloadSpec& s : workload_specs()) {
    names += std::string(names.empty() ? "" : ", ") + s.name;
  }
  tram::util::Cli cli(
      "tram_e2e: the repository benchmark (bench/e2e/README.md)");
  cli.add_string("workload", &opt.workload, "one of: " + names);
  cli.add_int("seed", &opt.seed, "seed of every input the run generates");
  cli.add_double("seconds", &opt.seconds, "time budget of the timed trials");
  cli.add_string("json", &opt.json, "write the result JSON here (required)");
  cli.add_string("trace-dir", &opt.trace_dir,
                 "also run one traced trial and write its Chrome trace and "
                 "layer breakdown into this directory");
  cli.add_flag("smoke", &opt.smoke, "small sizes: every workload in seconds");
  cli.add_flag("check", &opt.check,
               "exit 1 on a missing or NaN metric, a failed operation, or "
               "a dropped trace event");
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::fputs(cli.help().c_str(), stdout);
      std::puts("  --list\n      print each workload and why it is here, "
                "then exit");
      return 0;
    }
    if (a == "--list") {
      for (const WorkloadSpec& s : workload_specs()) {
        std::printf("%s\t%s\n", s.name, s.why);
      }
      return 0;
    }
  }
  if (!cli.parse(argc, argv)) return 2;
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : workload_specs()) {
    if (opt.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown --workload '%s' (one of: %s)\n",
                 opt.workload.c_str(), names.c_str());
    return 2;
  }
  if (opt.json.empty() || opt.seed < 0 || !(opt.seconds > 0.0) ||
      opt.seconds > 600.0) {
    std::fprintf(stderr,
                 "need --json, --seed >= 0 and 0 < --seconds <= 600\n");
    return 2;
  }
  return run(opt, *spec);
}
