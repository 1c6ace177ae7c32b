#pragma once
///
/// \file bench_common.hpp
/// \brief Shared harness for the figure-reproduction drivers.
///
/// Every fig* binary reproduces one figure of the paper: it sweeps the
/// figure's x-axis, prints the same series the paper plots, then evaluates
/// the paper's *shape* expectations (who wins, where the crossover falls)
/// and prints SHAPE PASS/FAIL lines. Absolute numbers are from our
/// simulated fabric, not Delta.
///
/// The scaled cost model: our workloads are ~10x smaller than the paper's
/// (one box instead of 64 Delta nodes), so per-message costs are scaled up
/// to keep the paper's governing ratio — per-message cost >> per-item
/// cost — at the same order. alpha stays microseconds; beta stays ~0.1
/// ns/B; the comm thread costs ~1.5us per message, making it the
/// serialization bottleneck exactly as in section III-A.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/scheme.hpp"
#include "core/tram_stats.hpp"
#include "fault/fault_config.hpp"
#include "net/cost_model.hpp"
#include "runtime/config.hpp"
#include "runtime/machine.hpp"
#include "trace/trace.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/topology.hpp"

namespace tram::bench {

/// Command-line/env options common to every figure driver.
struct BenchOptions {
  bool quick = false;  // ~4x smaller workloads (CI mode)
  std::int64_t trials = 3;
  bool csv = false;
  /// When nonempty, also write results as a JSON array to this path
  /// (see JsonReporter; benches with a perf trajectory set a default).
  std::string json;
  /// When nonempty, enable the tracing layer (src/trace/) and write the
  /// merged Chrome trace-event JSON here when the bench finishes (the
  /// destructor covers every return path), plus the per-phase summary.
  std::string trace;
  /// Driver hook to register extra options before parsing (e.g.
  /// fig_routed_histogram's --procs sweep override).
  std::function<void(util::Cli&)> extra;

  BenchOptions() = default;
  BenchOptions(const BenchOptions&) = delete;
  BenchOptions& operator=(const BenchOptions&) = delete;
  ~BenchOptions() { finish_trace(); }

  /// Parse argv; also honors TRAM_QUICK=1. Returns false on a bad option
  /// (--help prints the options and exits 0 inside util::Cli::parse).
  bool parse(int argc, char** argv, const std::string& what) {
    util::Cli cli(what);
    cli.add_flag("quick", &quick, "run a reduced sweep (also TRAM_QUICK=1)");
    cli.add_int("trials", &trials, "timed trials per configuration");
    cli.add_flag("csv", &csv, "also print CSV rows");
    cli.add_string("json", &json, "write a JSON result array to this path");
    cli.add_string("trace", &trace,
                   "write a Chrome/Perfetto trace-event JSON to this path");
    if (extra) extra(cli);
    if (!cli.parse(argc, argv)) return false;
    if (const char* env = std::getenv("TRAM_QUICK");
        env && env[0] == '1') {
      quick = true;
    }
    if (!trace.empty()) {
      trace::set_enabled(true);
      trace::set_thread_name("main");
    }
    return true;
  }

  /// Write the trace file and the per-phase summary once (destructor
  /// fallback; call earlier to place the summary in the output).
  void finish_trace() {
    if (trace.empty() || trace_written_) return;
    trace_written_ = true;
    trace::set_enabled(false);
    trace::write_chrome_json(trace);
    trace::print_phase_summary(stdout);
  }

 private:
  bool trace_written_ = false;
};

/// Parse "8,16,64" into proc counts (the CI smoke jobs run the small
/// topologies only). Any malformed token — including trailing garbage
/// like "8x16" — empties the result; the caller then errors out rather
/// than silently sweeping a truncated list.
inline std::vector<int> parse_proc_list(const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    char* end = nullptr;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (tok.empty() || end != tok.c_str() + tok.size() || v <= 0 ||
        v > 1'000'000) {  // also rejects values an int cast would mangle
      return {};
    }
    out.push_back(static_cast<int>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Resolve a bench's proc-count sweep against its --procs override: an
/// empty argument keeps the defaults, a parseable list replaces them,
/// and malformed input reports and returns false (the caller exits
/// nonzero rather than sweeping a truncated list).
inline bool resolve_proc_counts(const std::string& arg,
                                std::vector<int>& counts) {
  if (arg.empty()) return true;
  if (auto parsed = parse_proc_list(arg); !parsed.empty()) {
    counts = std::move(parsed);
    return true;
  }
  std::fprintf(stderr, "--procs: cannot parse '%s'\n", arg.c_str());
  return false;
}

/// Parse "8M" / "512K" / "1G" / "4096" into bytes. Returns 0 on any
/// malformed input (including trailing garbage) — sizes are never
/// legitimately zero, so callers error out on 0.
inline std::uint64_t parse_size_bytes(const std::string& s) {
  if (s.empty()) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str()) return 0;
  std::uint64_t mult = 1;
  switch (*end) {
    case 'K': case 'k': mult = 1ull << 10; ++end; break;
    case 'M': case 'm': mult = 1ull << 20; ++end; break;
    case 'G': case 'g': mult = 1ull << 30; ++end; break;
    default: break;
  }
  if (*end != '\0') return 0;
  return static_cast<std::uint64_t>(v) * mult;
}

/// Fault-injection knobs shared by the routed benches: a lossy-fabric
/// sweep is the same sweep with these applied to the RuntimeConfig.
struct FaultOptions {
  double drop = 0.0;
  double dup = 0.0;
  std::int64_t delay_ns = 0;
  std::int64_t seed = 1;

  void register_cli(util::Cli& cli) {
    cli.add_double("fault-drop", &drop,
                   "packet drop probability (installs the reliability "
                   "layer when nonzero)");
    cli.add_double("fault-dup", &dup, "packet duplication probability");
    cli.add_int("fault-delay", &delay_ns, "extra per-packet delay, ns");
    cli.add_int("fault-seed", &seed, "fault schedule seed");
  }

  bool any() const noexcept { return drop > 0.0 || dup > 0.0 || delay_ns > 0; }

  fault::FaultConfig to_config() const {
    // A negative value would wrap through the uint64 cast into a
    // centuries-long delay (or a bogus seed) while any() reports no
    // faults — fail fast instead.
    if (delay_ns < 0 || seed < 0) {
      std::fprintf(stderr,
                   "--fault-delay and --fault-seed must be non-negative\n");
      std::exit(1);
    }
    fault::FaultConfig f;
    f.drop_rate = drop;
    f.dup_rate = dup;
    f.delay_ns = static_cast<std::uint64_t>(delay_ns);
    f.seed = static_cast<std::uint64_t>(seed);
    f.validate();  // rate errors surface here, not mid-sweep
    return f;
  }
};

/// The counter slice shared by every routed app bench: the app point
/// structs (HistoPoint / SsspPoint / PholdPoint / ShufflePoint) inherit
/// it and add their app-specific fields, so a new app cannot fork the
/// copy-paste again. capture() fills it from the pieces every app result
/// carries; make_routed_row serializes it and RoutedVerifySweep compares
/// it.
struct RoutedPointCounters {
  std::uint64_t tram_messages = 0;  // buffers shipped
  /// Messages re-shipped by routing intermediates (0 for direct schemes).
  std::uint64_t forwarded_messages = 0;
  /// Routed last-hop messages shipped pre-sorted (the zero-copy scatter
  /// fast path; 0 for direct schemes).
  std::uint64_t sorted_messages = 0;
  /// Final-hop segments handed on as refcounted sub-views (0 direct).
  std::uint64_t subview_deliveries = 0;
  std::uint64_t fabric_messages = 0;
  std::uint64_t fabric_bytes = 0;
  /// Live source-side buffers on the worst worker (O(N) direct,
  /// O(d*N^(1/d)) routed).
  std::uint64_t max_reserved_buffers = 0;
  /// Fault/reliability counters (all zero for fault-free runs).
  core::FaultStats faults;

  void capture(const core::WorkerTramStats& tram,
               const rt::Machine::RunResult& run, std::uint64_t max_reserved,
               const core::FaultStats& f) {
    tram_messages = tram.msgs_shipped;
    forwarded_messages = run.forwarded_messages;
    sorted_messages = tram.routed_sorted_msgs;
    subview_deliveries = tram.routed_subview_deliveries;
    fabric_messages = run.fabric_messages;
    fabric_bytes = run.fabric_bytes;
    max_reserved_buffers = max_reserved;
    faults = f;
  }
};

/// One configuration's result in a bench sweep, as serialized by
/// JsonReporter — the machine-readable perf trajectory next to the
/// human-readable table.
struct JsonRow {
  std::string scheme;    // aggregation scheme ("WPs", "Mesh2D", ...)
  std::string topology;  // machine shape ("4n x 2p x 8w")
  std::string mesh;      // virtual mesh extents ("8x8"; "-" for direct)
  double ns_per_item = 0.0;
  RoutedPointCounters counters;
  /// Extra bench-specific fields, pre-rendered as JSON ("\"k\": v, ...");
  /// spliced into the row object verbatim when nonempty.
  std::string extra_json;
  bool verified = true;
};

/// Build the JSON row every routed bench emits per (scheme, scale) cell.
inline JsonRow make_routed_row(const std::string& scheme,
                               const std::string& topology,
                               const std::string& mesh,
                               const RoutedPointCounters& c,
                               double ns_per_item, bool verified) {
  return JsonRow{scheme, topology, mesh, ns_per_item, c, {}, verified};
}

/// Accumulates JsonRows and writes them as one JSON document:
///   {"bench": <name>, "results": [ {...}, ... ]}
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench) : bench_(std::move(bench)) {}

  void add(JsonRow row) { rows_.push_back(std::move(row)); }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReporter: cannot open '%s'\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [",
                 bench_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const JsonRow& r = rows_[i];
      const RoutedPointCounters& c = r.counters;
      std::fprintf(f,
                   "%s\n    {\"scheme\": \"%s\", \"topology\": \"%s\", "
                   "\"mesh\": \"%s\", \"ns_per_item\": %.2f, "
                   "\"messages\": %llu, \"bytes\": %llu, "
                   "\"forwarded\": %llu, \"sorted\": %llu, "
                   "\"subviews\": %llu, "
                   "\"max_buffers\": %llu, "
                   "\"faults_injected_drop\": %llu, "
                   "\"faults_injected_dup\": %llu, "
                   "\"faults_injected_delay\": %llu, "
                   "\"retransmits\": %llu, \"dup_drops\": %llu, "
                   "\"acks_sent\": %llu, "
                   "\"fast_retransmits\": %llu, \"rto_fires\": %llu, "
                   "\"rtx_bytes\": %llu, \"paced_msgs\": %llu, "
                   "\"max_inflight_msgs\": %llu, "
                   "\"link_busy_ns\": %llu, \"max_link_queue_ns\": %llu, "
                   "%s%s\"verified\": %s}",
                   i == 0 ? "" : ",", r.scheme.c_str(), r.topology.c_str(),
                   r.mesh.c_str(), r.ns_per_item,
                   static_cast<unsigned long long>(c.fabric_messages),
                   static_cast<unsigned long long>(c.fabric_bytes),
                   static_cast<unsigned long long>(c.forwarded_messages),
                   static_cast<unsigned long long>(c.sorted_messages),
                   static_cast<unsigned long long>(c.subview_deliveries),
                   static_cast<unsigned long long>(c.max_reserved_buffers),
                   static_cast<unsigned long long>(
                       c.faults.faults_injected_drop),
                   static_cast<unsigned long long>(
                       c.faults.faults_injected_dup),
                   static_cast<unsigned long long>(
                       c.faults.faults_injected_delay),
                   static_cast<unsigned long long>(c.faults.retransmits),
                   static_cast<unsigned long long>(c.faults.dup_drops),
                   static_cast<unsigned long long>(c.faults.acks_sent),
                   static_cast<unsigned long long>(
                       c.faults.fast_retransmits),
                   static_cast<unsigned long long>(c.faults.rto_fires),
                   static_cast<unsigned long long>(c.faults.rtx_bytes),
                   static_cast<unsigned long long>(c.faults.paced_msgs),
                   static_cast<unsigned long long>(
                       c.faults.max_inflight_msgs),
                   static_cast<unsigned long long>(c.faults.link_busy_ns),
                   static_cast<unsigned long long>(
                       c.faults.max_link_queue_ns),
                   r.extra_json.c_str(), r.extra_json.empty() ? "" : ", ",
                   r.verified ? "true" : "false");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %zu results to %s\n", rows_.size(), path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::vector<JsonRow> rows_;
};

/// Interconnect model used by all figure benches (see file comment).
inline net::CostModel bench_cost_model() {
  net::CostModel m;
  m.alpha_remote_ns = 20'000.0;
  m.alpha_local_ns = 2'000.0;
  m.beta_remote_ns = 0.1;
  m.beta_local_ns = 0.02;
  // Kept well below the comm-thread per-message cost: real NICs accept
  // injections from many processes in parallel (per-process queue pairs),
  // so the node-level serialization point must not mask the comm thread.
  m.inject_ns = 200.0;
  return m;
}

/// Runtime config for SMP-mode figure runs.
inline rt::RuntimeConfig bench_runtime() {
  rt::RuntimeConfig cfg;
  cfg.cost = bench_cost_model();
  cfg.comm_per_msg_send_ns = 1'500.0;
  cfg.comm_per_msg_recv_ns = 1'500.0;
  cfg.comm_per_byte_ns = 0.05;
  return cfg;
}

/// Runtime config for non-SMP runs (each worker communicates for itself).
inline rt::RuntimeConfig bench_runtime_nonsmp() {
  rt::RuntimeConfig cfg = bench_runtime();
  cfg.dedicated_comm = false;
  return cfg;
}

/// Run `fn` (returning seconds) `trials` times after one warmup; returns
/// the median.
template <typename Fn>
double median_seconds(int trials, Fn&& fn) {
  (void)fn();  // warmup
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(trials));
  for (int i = 0; i < trials; ++i) samples.push_back(fn());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Collects shape-expectation results and prints a summary.
class ShapeChecker {
 public:
  void expect(bool ok, const std::string& what) {
    checks_.push_back({ok, what});
    if (!ok) failures_++;
  }

  /// Prints every check and returns the number of failures; a bench whose
  /// checks read counters can make that count its exit code, as
  /// fig_fault_sweep does.
  int report() const {
    std::printf("\n-- shape checks --\n");
    for (const auto& [ok, what] : checks_) {
      std::printf("[%s] %s\n", ok ? "SHAPE PASS" : "SHAPE FAIL",
                  what.c_str());
    }
    std::printf("%zu/%zu shape checks passed\n", checks_.size() - failures_,
                checks_.size());
    return static_cast<int>(failures_);
  }

 private:
  std::vector<std::pair<bool, std::string>> checks_;
  std::size_t failures_ = 0;
};

/// Direct-vs-routed verification bookkeeping shared by the routed app
/// benches: per-(scale, scheme) cells in sweep order — the first scheme
/// of each scale is the direct anchor — plus the structural shape checks
/// every routed bench asserts.
class RoutedVerifySweep {
 public:
  /// Call once per proc count, before that scale's add() calls.
  void start_scale() { cells_.emplace_back(); }
  void add(const RoutedPointCounters& c, bool verified) {
    cells_.back().push_back(Cell{c, verified});
  }

  bool all_verified() const {
    for (const auto& scale : cells_) {
      for (const auto& cell : scale) {
        if (!cell.verified) return false;
      }
    }
    return true;
  }

  /// The shared routed-bench shape checks, evaluated at the largest
  /// scale (cell order per scale: 0 = direct anchor, 1 = 2-D, 2 = 3-D):
  /// everything verified, the 2-D mesh beats direct on live buffers, and
  /// only the routed schemes forward through intermediates.
  void standard_checks(ShapeChecker& shapes,
                       const std::string& verified_what) const {
    shapes.expect(all_verified(), verified_what);
    const auto& last = cells_.back();
    const RoutedPointCounters& direct = last[0].c;
    const RoutedPointCounters& mesh2d = last[1].c;
    const RoutedPointCounters& mesh3d = last[2].c;
    shapes.expect(
        mesh2d.max_reserved_buffers < direct.max_reserved_buffers,
        "2-D mesh holds fewer live source buffers than direct at the "
        "largest scale");
    shapes.expect(direct.forwarded_messages == 0 &&
                      mesh2d.forwarded_messages > 0 &&
                      mesh3d.forwarded_messages > 0,
                  "only the routed schemes forward through intermediates");
  }

 private:
  struct Cell {
    RoutedPointCounters c;
    bool verified = false;
  };
  std::vector<std::vector<Cell>> cells_;
};

/// Print the table (and CSV when requested).
inline void emit(const util::Table& table, const BenchOptions& opt) {
  table.print();
  if (opt.csv) {
    std::printf("\n-- csv --\n%s", table.to_csv().c_str());
  }
}

}  // namespace tram::bench
