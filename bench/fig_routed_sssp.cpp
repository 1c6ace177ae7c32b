/// Routed-vs-direct SSSP: the first irregular app on the mesh. Sweeps the
/// virtual process count and compares direct WPs against 2-D and 3-D mesh
/// routing on the same graph, with the priority path on for every scheme
/// (under-threshold improvements ride insert_priority — over the mesh,
/// the RoutedHeader priority bit keeps them ahead of bulk at every hop).
///
/// Verification is the point, not the timing: every row must deliver
/// exactly once (tram inserted == delivered under quiescence), match
/// Dijkstra, and converge to distances bit-for-bit identical to the
/// direct-scheme run (FNV hash over the distance array). CI's bench-smoke
/// job fails on any `"verified": false` row, and on a nonzero exit code:
/// the number of failed shape checks, which read only counters. With --fault-drop/--fault-dup/
/// --fault-delay the same sweep runs over a lossy fabric through the
/// reliability layer (src/fault/), and the verification must still hold.
///
/// Runs non-SMP (one worker per process) so the process count is the only
/// variable. Emits BENCH_routed_sssp.json (override with --json).

#include <cstdio>
#include <string>

#include "core/virtual_mesh.hpp"
#include "sssp_common.hpp"

using namespace tram;

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
                 "fig_routed_sssp: direct vs 2-D vs 3-D mesh routing"))
    return 2;
  if (opt.json.empty()) opt.json = "BENCH_routed_sssp.json";

  graph::GeneratorParams gp;
  gp.num_vertices = opt.quick ? 20'000 : 50'000;
  gp.avg_degree = 8.0;
  gp.seed = 3;
  const graph::Csr g = graph::build_uniform(gp);

  std::vector<int> proc_counts = opt.quick ? std::vector<int>{8, 16}
                                           : std::vector<int>{8, 16, 64};
  if (!bench::resolve_proc_counts(procs_arg, proc_counts)) return 1;

  const std::vector<core::Scheme> schemes = {
      core::Scheme::WPs, core::Scheme::Mesh2D, core::Scheme::Mesh3D};

  util::Table table("Routed SSSP: " + std::to_string(gp.num_vertices) +
                    " vertices, priority path on, non-SMP" +
                    (fault.any() ? ", faulty fabric" : ""));
  table.set_header({"procs", "scheme", "mesh", "bufs", "wasted %", "msgs",
                    "fwd msgs", "pri msgs", "rtx", "wall s", "ok"});

  bench::JsonReporter json("routed_sssp");
  bench::ShapeChecker shapes;
  bench::RoutedVerifySweep sweep;

  // Priority-message totals per scheme at the largest scale (the one
  // SSSP-specific shape check the shared harness does not cover).
  std::vector<std::uint64_t> last_priority_msgs(schemes.size(), 0);

  rt::RuntimeConfig rt_cfg = bench::bench_runtime_nonsmp();
  rt_cfg.fault = fault.to_config();

  for (std::size_t pi = 0; pi < proc_counts.size(); ++pi) {
    const int procs = proc_counts[pi];
    const util::Topology topo(procs, 1, 1);
    sweep.start_scale();
    // The direct scheme's distance hash anchors the bit-for-bit
    // cross-check for the routed rows at this scale.
    std::uint64_t direct_hash = 0;
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      const core::Scheme scheme = schemes[si];
      core::TramConfig tram;
      tram.scheme = scheme;
      tram.buffer_items = 256;
      tram.priority_buffer_items = 16;
      std::string mesh = "-";
      if (core::is_routed(scheme)) {
        mesh = core::VirtualMesh::auto_factor(procs,
                                               core::mesh_ndims(scheme))
                   .to_string();
      }
      trace::phase(std::string(core::to_string(scheme)) + " p=" +
                   std::to_string(procs));
      const auto point =
          bench::run_sssp(g, topo, tram, static_cast<int>(opt.trials),
                          rt_cfg, /*prioritize_urgent=*/true);
      if (scheme == core::Scheme::WPs) direct_hash = point.dist_hash;

      // A row is verified only when delivery was exactly-once, the
      // distances match Dijkstra, AND they equal the direct run's
      // bit-for-bit.
      const bool verified = point.verified && point.exactly_once &&
                            point.dist_hash == direct_hash;

      const double ns_per_item =
          point.items ? point.seconds * 1e9 / static_cast<double>(point.items)
                      : 0.0;
      sweep.add(point, verified);
      if (pi + 1 == proc_counts.size()) {
        last_priority_msgs[si] = point.priority_messages;
      }

      table.add_row(
          {util::Table::fmt_int(procs), core::to_string(scheme), mesh,
           util::Table::fmt_int(
               static_cast<long long>(point.max_reserved_buffers)),
           util::Table::fmt(point.wasted_pct, 2),
           util::Table::fmt_int(
               static_cast<long long>(point.tram_messages)),
           util::Table::fmt_int(
               static_cast<long long>(point.forwarded_messages)),
           util::Table::fmt_int(
               static_cast<long long>(point.priority_messages)),
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
      "every configuration verified: exactly-once, Dijkstra match, and "
      "distances bit-for-bit equal to direct");
  shapes.expect(last_priority_msgs[1] > 0 && last_priority_msgs[2] > 0,
                "under-threshold updates rode the routed priority path");
  return shapes.report();
}
