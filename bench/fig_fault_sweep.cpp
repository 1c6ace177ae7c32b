/// Recovery-path sweep: loss rate x scheme -> ns/item, retransmit
/// profile, and exactly-once verification on a contended, lossy fabric.
/// This is the benchmark that makes src/fault/ a first-class measured
/// subsystem instead of a correctness-only feature.
///
/// Every cell runs the histogram workload (commutative increments, so
/// the final table is order-independent) through the reliability layer
/// (SACK bitmap + fast retransmit + batch timer recovery, adaptive RTO,
/// AIMD window) and verifies two things: the app-level exactly-once
/// count, and that the distributed table is *bit-identical* to a
/// fault-free reference run of the same seed — a dropped, duplicated, or
/// reordered packet that leaks past recovery corrupts the table and
/// fails the row.
///
/// The cost model adds per-link contention (CostModel::link_per_msg_ns)
/// so converging traffic queues on destination ingress links — the
/// regime where the AIMD window and pacing are observable (paced_msgs,
/// max_inflight_msgs, link_busy_ns in the JSON).
///
/// Unlike the other figure benches this driver exits nonzero when a row
/// fails to verify or a shape check fails: its checks are counter-based
/// (drops injected, timer rounds, byte overheads), not wall-clock-based,
/// so they are stable on a noisy box — which is what lets CI use it as
/// the recovery-path regression gate. Emits BENCH_fault_sweep.json.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "bench_common.hpp"
#include "core/virtual_mesh.hpp"

using namespace tram;

namespace {

struct SweepPoint : bench::RoutedPointCounters {
  double seconds = 0.0;
  bool verified = true;
  std::uint64_t table_hash = 0;
};

/// FNV-1a over the whole distributed table: any lost, duplicated, or
/// corrupted increment changes it.
std::uint64_t hash_tables(const apps::HistogramApp& app, int workers) {
  std::uint64_t h = 1469598103934665603ull;
  for (int w = 0; w < workers; ++w) {
    for (const std::uint64_t v : app.table_slice(w)) {
      std::uint64_t x = v;
      for (int i = 0; i < 8; ++i) {
        h ^= (x & 0xff);
        h *= 1099511628211ull;
        x >>= 8;
      }
    }
  }
  return h;
}

SweepPoint run_cell(const util::Topology& topo,
                    const rt::RuntimeConfig& rt_cfg,
                    const core::TramConfig& tram_cfg,
                    std::uint64_t updates_per_worker, int trials) {
  rt::Machine machine(topo, rt_cfg);
  apps::HistogramParams params;
  params.updates_per_worker = updates_per_worker;
  params.bins_per_worker = 1 << 12;
  params.tram = tram_cfg;
  apps::HistogramApp app(machine, params);

  SweepPoint point;
  point.seconds = bench::median_seconds(trials, [&] {
    const auto res = app.run();
    point.capture(res.tram, res.run, res.max_reserved_buffers,
                  machine.fault_stats());
    point.verified = point.verified && res.verified;
    return res.run.wall_s;
  });
  // Every trial reruns the same seed, so the surviving table is the
  // deterministic final state — hash it for the bit-identical check.
  point.table_hash = hash_tables(app, topo.workers());
  return point;
}

std::vector<double> parse_rate_list(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end != tok.c_str() + tok.size() || v <= 0.0 ||
        v > 0.9) {
      return {};
    }
    out.push_back(v);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  std::string procs_arg;
  std::string drops_arg;
  std::int64_t fault_seed = 1;
  opt.extra = [&](util::Cli& cli) {
    cli.add_string("procs", &procs_arg,
                   "comma-separated virtual process counts to sweep");
    cli.add_string("drops", &drops_arg,
                   "comma-separated drop rates to sweep (e.g. 0.05,0.15)");
    cli.add_int("fault-seed", &fault_seed, "fault schedule seed");
  };
  if (!opt.parse(argc, argv, "fig_fault_sweep: loss rate x scheme"))
    return 2;
  if (opt.json.empty()) opt.json = "BENCH_fault_sweep.json";
  if (fault_seed < 0) {
    std::fprintf(stderr, "--fault-seed must be non-negative\n");
    return 1;
  }

  const std::uint64_t updates = opt.quick ? 2'000 : 8'000;
  const std::uint32_t g = 256;
  std::vector<int> proc_counts{8, 16};
  if (!bench::resolve_proc_counts(procs_arg, proc_counts)) return 1;
  std::vector<double> drop_rates{0.05, 0.15};
  if (!drops_arg.empty()) {
    drop_rates = parse_rate_list(drops_arg);
    if (drop_rates.empty()) {
      std::fprintf(stderr, "--drops: cannot parse '%s'\n",
                   drops_arg.c_str());
      return 1;
    }
  }
  const double max_drop =
      *std::max_element(drop_rates.begin(), drop_rates.end());

  const std::vector<core::Scheme> schemes = {core::Scheme::WPs,
                                             core::Scheme::Mesh2D};

  // Contended fabric: destination ingress links serialize converging
  // traffic, so the AIMD window has something real to pace against.
  rt::RuntimeConfig base_cfg = bench::bench_runtime_nonsmp();
  base_cfg.cost.link_per_msg_ns = 400.0;
  base_cfg.cost.link_per_byte_ns = 0.05;

  util::Table table("Fault sweep: " + std::to_string(updates) +
                    " updates/PE, g=" + std::to_string(g) +
                    ", non-SMP, contended links");
  table.set_header({"procs", "scheme", "drop", "rtx", "fast", "rto", "dup",
                    "paced", "win", "ns/item", "ok"});

  bench::JsonReporter json("fault_sweep");
  bench::ShapeChecker shapes;

  std::vector<SweepPoint> cells;
  bool all_verified = true;

  for (const int procs : proc_counts) {
    const util::Topology topo(procs, 1, 1);
    for (const auto scheme : schemes) {
      core::TramConfig tram;
      tram.scheme = scheme;
      tram.buffer_items = g;
      std::string mesh = "-";
      if (core::is_routed(scheme)) {
        mesh = core::VirtualMesh::auto_factor(procs,
                                               core::mesh_ndims(scheme))
                   .to_string();
      }
      // Fault-free reference: the bit-identical anchor for this
      // (procs, scheme) on the same workload seed and cost model.
      rt::RuntimeConfig ref_cfg = base_cfg;
      ref_cfg.fault = fault::FaultConfig{};
      const SweepPoint ref = run_cell(topo, ref_cfg, tram, updates, 1);
      if (!ref.verified) {
        std::fprintf(stderr, "fault-free reference failed to verify\n");
        return 1;
      }

      for (const double drop : drop_rates) {
        rt::RuntimeConfig rt_cfg = base_cfg;
        rt_cfg.fault.drop_rate = drop;
        rt_cfg.fault.seed = static_cast<std::uint64_t>(fault_seed);
        trace::phase(std::string(core::to_string(scheme)) + " p=" +
                     std::to_string(procs) + " drop=" +
                     std::to_string(drop));
        const SweepPoint point = run_cell(topo, rt_cfg, tram, updates,
                                          static_cast<int>(opt.trials));
        const bool verified =
            point.verified && point.table_hash == ref.table_hash;
        all_verified = all_verified && verified;

        const double ns_per_item =
            point.seconds * 1e9 /
            static_cast<double>(updates * static_cast<std::uint64_t>(procs));
        const auto& f = point.faults;
        table.add_row(
            {util::Table::fmt_int(procs), core::to_string(scheme),
             util::Table::fmt(drop, 2),
             util::Table::fmt_int(static_cast<long long>(f.retransmits)),
             util::Table::fmt_int(static_cast<long long>(f.fast_retransmits)),
             util::Table::fmt_int(static_cast<long long>(f.rto_fires)),
             util::Table::fmt_int(static_cast<long long>(f.dup_drops)),
             util::Table::fmt_int(static_cast<long long>(f.paced_msgs)),
             util::Table::fmt_int(
                 static_cast<long long>(f.max_inflight_msgs)),
             util::Table::fmt(ns_per_item, 1), verified ? "yes" : "NO"});

        bench::JsonRow row =
            bench::make_routed_row(core::to_string(scheme), topo.to_string(),
                                   mesh, point, ns_per_item, verified);
        char extra[32];
        std::snprintf(extra, sizeof extra, "\"drop\": %.2f", drop);
        row.extra_json = extra;
        json.add(row);
        cells.push_back(point);
      }
    }
  }
  bench::emit(table, opt);
  json.write(opt.json);

  // -- shape checks (counter-based; this bench gates on them) --
  shapes.expect(all_verified,
                "every cell delivered exactly once and matched the "
                "fault-free reference table bit for bit");

  std::uint64_t fast_rtx = 0;
  std::uint64_t drops_seen = 0;
  double rtx_over_total = 0.0;
  bool window_bounded = true;
  std::uint64_t link_busy = 0;
  for (const SweepPoint& point : cells) {
    const auto& f = point.faults;
    fast_rtx += f.fast_retransmits;
    drops_seen += f.faults_injected_drop;
    if (point.fabric_bytes > 0) {
      const double frac = static_cast<double>(f.rtx_bytes) /
                          static_cast<double>(point.fabric_bytes);
      rtx_over_total = std::max(rtx_over_total, frac);
    }
    window_bounded = window_bounded && f.max_inflight_msgs <= 64;
    link_busy += f.link_busy_ns;
  }
  shapes.expect(fast_rtx > 0,
                "SACK fast-retransmitted at least one hole before its "
                "timer");
  shapes.expect(drops_seen > 0, "the sweep injected at least one drop");
  // Overhead bound: re-shipped bytes stay within a small multiple of the
  // injected loss (batch timer recovery re-ships live entries too, so
  // the bound is loose — but a retransmit storm blows far past it).
  shapes.expect(rtx_over_total <= 8.0 * max_drop + 0.05,
                "rtx-byte overhead bounded by injected loss (worst " +
                    std::to_string(rtx_over_total) + " of fabric bytes)");
  shapes.expect(window_bounded,
                "per-channel in-flight never exceeded window_max");
  shapes.expect(link_busy > 0,
                "contended cost model accrued link occupancy");

  const int failures = shapes.report();
  if (!all_verified || failures != 0) return 1;
  return 0;
}
