/// Routed-vs-direct PHOLD: the second irregular app on the mesh. Sweeps
/// the virtual process count and compares direct WPs against 2-D and 3-D
/// mesh routing on the same synthetic event workload.
///
/// Verification is the point, not the timing: every event chain draws its
/// successors from the event's own RNG stream (see apps/phold.hpp), so
/// the machine-wide event count is a pure function of the seed — a routed
/// row is verified only when delivery was exactly-once (tram inserted ==
/// delivered under quiescence) AND its event count matches the
/// direct-scheme run bit-for-bit. CI's bench-smoke job fails on any
/// `"verified": false` row. With --fault-drop/--fault-dup/--fault-delay
/// the same sweep runs over a lossy fabric through the reliability layer
/// (src/fault/), and the verification must still hold.
///
/// Runs non-SMP (one worker per process) so the process count is the only
/// variable. Emits BENCH_routed_phold.json (override with --json).

#include <cstdio>
#include <string>

#include "apps/phold.hpp"
#include "bench_common.hpp"
#include "route/virtual_mesh.hpp"
#include "runtime/machine.hpp"

using namespace tram;

namespace {

struct PholdPoint : bench::RoutedPointCounters {
  double seconds = 0.0;
  std::uint64_t events = 0;
  double ooo_pct = 0.0;
  std::uint64_t items = 0;
  bool exactly_once = true;
};

PholdPoint run_phold(const util::Topology& topo,
                     const core::TramConfig& tram_cfg,
                     const rt::RuntimeConfig& rt_cfg, double end_time,
                     int trials) {
  rt::Machine machine(topo, rt_cfg);
  apps::PholdParams params;
  params.lps_per_worker = 32;
  params.init_events_per_lp = 1;
  params.lookahead = 1.0;
  params.remote_prob = 0.5;
  params.end_time = end_time;
  params.tram = tram_cfg;
  apps::PholdApp app(machine, params);

  PholdPoint point;
  util::RunningStats pct_stats;
  point.seconds = bench::median_seconds(trials, [&] {
    const auto res = app.run();
    pct_stats.add(res.ooo_pct);
    point.capture(res.tram, res.run, res.max_reserved_buffers,
                  machine.fault_stats());
    point.events = res.events_processed;
    point.items = res.tram.items_delivered;
    point.exactly_once = point.exactly_once &&
                         res.tram.items_inserted == res.tram.items_delivered;
    return res.run.wall_s;
  });
  point.ooo_pct = pct_stats.mean();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  bench::FaultOptions fault;
  std::string procs_arg;
  opt.extra = [&](util::Cli& cli) {
    cli.add_string("procs", &procs_arg,
                   "comma-separated virtual process counts to sweep");
    fault.register_cli(cli);
  };
  if (!opt.parse(argc, argv,
                 "fig_routed_phold: direct vs 2-D vs 3-D mesh routing"))
    return 2;
  if (opt.json.empty()) opt.json = "BENCH_routed_phold.json";

  const double end_time = opt.quick ? 80.0 : 150.0;
  std::vector<int> proc_counts = opt.quick ? std::vector<int>{8, 16}
                                           : std::vector<int>{8, 16, 64};
  if (!bench::resolve_proc_counts(procs_arg, proc_counts)) return 1;

  const std::vector<core::Scheme> schemes = {
      core::Scheme::WPs, core::Scheme::Mesh2D, core::Scheme::Mesh3D};

  util::Table table("Routed PHOLD: 32 LPs/PE, end_time=" +
                    util::Table::fmt(end_time, 0) + ", non-SMP" +
                    (fault.any() ? ", faulty fabric" : ""));
  table.set_header({"procs", "scheme", "mesh", "events", "ooo %", "bufs",
                    "msgs", "fwd msgs", "rtx", "wall s", "ok"});

  bench::JsonReporter json("routed_phold");
  bench::ShapeChecker shapes;
  bench::RoutedVerifySweep sweep;

  rt::RuntimeConfig rt_cfg = bench::bench_runtime_nonsmp();
  rt_cfg.fault = fault.to_config();

  for (std::size_t pi = 0; pi < proc_counts.size(); ++pi) {
    const int procs = proc_counts[pi];
    const util::Topology topo(procs, 1, 1);
    sweep.start_scale();
    // The direct scheme's event count anchors the bit-for-bit
    // cross-check for the routed rows at this scale.
    std::uint64_t direct_events = 0;
    for (const auto scheme : schemes) {
      core::TramConfig tram;
      tram.scheme = scheme;
      tram.buffer_items = 256;
      std::string mesh = "-";
      if (core::is_routed(scheme)) {
        mesh = route::VirtualMesh::auto_factor(procs,
                                               core::mesh_ndims(scheme))
                   .to_string();
      }
      trace::phase(std::string(core::to_string(scheme)) + " p=" +
                   std::to_string(procs));
      const auto point = run_phold(topo, tram, rt_cfg, end_time,
                                   static_cast<int>(opt.trials));
      if (scheme == core::Scheme::WPs) direct_events = point.events;

      const bool verified =
          point.exactly_once && point.events == direct_events &&
          point.events > 0;

      const double ns_per_item =
          point.items ? point.seconds * 1e9 / static_cast<double>(point.items)
                      : 0.0;
      sweep.add(point, verified);

      table.add_row(
          {util::Table::fmt_int(procs), core::to_string(scheme), mesh,
           util::Table::fmt_int(static_cast<long long>(point.events)),
           util::Table::fmt(point.ooo_pct, 2),
           util::Table::fmt_int(
               static_cast<long long>(point.max_reserved_buffers)),
           util::Table::fmt_int(
               static_cast<long long>(point.tram_messages)),
           util::Table::fmt_int(
               static_cast<long long>(point.forwarded_messages)),
           util::Table::fmt_int(
               static_cast<long long>(point.faults.retransmits)),
           util::Table::fmt(point.seconds, 4), verified ? "yes" : "NO"});

      json.add(bench::make_routed_row(core::to_string(scheme),
                                      topo.to_string(), mesh, point,
                                      ns_per_item, verified));
    }
  }
  bench::emit(table, opt);
  json.write(opt.json);

  sweep.standard_checks(
      shapes,
      "every configuration verified: exactly-once and event counts "
      "bit-for-bit equal to direct");
  shapes.report();
  return 0;
}
