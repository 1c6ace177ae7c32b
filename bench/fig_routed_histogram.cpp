/// Routed-vs-direct histogram: the scaling experiment the paper's direct
/// schemes cannot run. Sweeps the virtual process count and compares
/// direct WPs against 2-D and 3-D mesh routing (core/tram.hpp) on the same
/// workload. Expectations: the direct scheme's live source buffers grow
/// O(N) while the meshes hold O(d*N^(1/d)); per-buffer fill (items/msg)
/// degrades for direct as N grows but stays flat for routed; routed pays
/// for this with forwarded (multi-hop) messages.
///
/// With --fault-drop/--fault-dup/--fault-delay the sweep runs over a
/// lossy fabric through the reliability layer (src/fault/): every row
/// must still verify (exactly-once table totals), and the fault counters
/// land in the JSON. Without fault flags the bench additionally checks
/// that the default all-zero FaultConfig engaged none of the fault
/// machinery (FaultConfig.AllZeroLeavesTransportUndecorated checks the
/// same structurally).
///
/// Runs non-SMP (one worker per process) so the process count is the only
/// variable. Emits BENCH_routed_histogram.json (override with --json).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/virtual_mesh.hpp"
#include "hist_common.hpp"

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
                 "fig_routed_histogram: direct vs 2-D vs 3-D mesh routing"))
    return 2;
  if (opt.json.empty()) opt.json = "BENCH_routed_histogram.json";

  const std::uint64_t updates = opt.quick ? 4'000 : 20'000;
  // Small buffers keep the message rate meaningful at these scales; the
  // buffer-count contrast is independent of g.
  const std::uint32_t g = 256;
  std::vector<int> proc_counts = opt.quick ? std::vector<int>{16, 64}
                                           : std::vector<int>{8, 16, 27, 64};
  if (!bench::resolve_proc_counts(procs_arg, proc_counts)) return 1;

  const std::vector<core::Scheme> schemes = {
      core::Scheme::WPs, core::Scheme::Mesh2D, core::Scheme::Mesh3D};

  util::Table table("Routed histogram: " + std::to_string(updates) +
                    " updates/PE, g=" + std::to_string(g) + ", non-SMP" +
                    (fault.any() ? ", faulty fabric" : ""));
  table.set_header({"procs", "scheme", "mesh", "bufs", "items/msg", "msgs",
                    "fwd msgs", "sorted", "rtx", "wall s", "ok"});

  bench::JsonReporter json("routed_histogram");
  bench::ShapeChecker shapes;
  bench::RoutedVerifySweep sweep;

  rt::RuntimeConfig rt_cfg = bench::bench_runtime_nonsmp();
  rt_cfg.fault = fault.to_config();

  struct Cell {
    bench::HistoPoint point;
    std::string mesh;
  };
  std::vector<std::vector<Cell>> cells(proc_counts.size());

  for (std::size_t pi = 0; pi < proc_counts.size(); ++pi) {
    const int procs = proc_counts[pi];
    const util::Topology topo(procs, 1, 1);
    sweep.start_scale();
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
      trace::phase(std::string(core::to_string(scheme)) + " p=" +
                   std::to_string(procs));
      const auto point = bench::run_histogram(
          topo, rt_cfg, tram, updates, static_cast<int>(opt.trials));
      cells[pi].push_back({point, mesh});

      const double ns_per_item =
          point.seconds * 1e9 /
          static_cast<double>(updates * static_cast<std::uint64_t>(procs));
      table.add_row(
          {util::Table::fmt_int(procs), core::to_string(scheme), mesh,
           util::Table::fmt_int(
               static_cast<long long>(point.max_reserved_buffers)),
           util::Table::fmt(point.mean_occupancy, 1),
           util::Table::fmt_int(
               static_cast<long long>(point.tram_messages)),
           util::Table::fmt_int(
               static_cast<long long>(point.forwarded_messages)),
           util::Table::fmt_int(
               static_cast<long long>(point.sorted_messages)),
           util::Table::fmt_int(
               static_cast<long long>(point.faults.retransmits)),
           util::Table::fmt(point.seconds, 4),
           point.verified ? "yes" : "NO"});

      sweep.add(point, point.verified);
      json.add(bench::make_routed_row(core::to_string(scheme),
                                      topo.to_string(), mesh, point,
                                      ns_per_item, point.verified));
    }
  }
  bench::emit(table, opt);
  json.write(opt.json);

  // Shape expectations (indices follow `schemes`: 0=WPs, 1=2D, 2=3D).
  sweep.standard_checks(
      shapes, "every configuration delivered every item exactly once");

  const std::size_t last = proc_counts.size() - 1;  // largest proc count
  const auto& direct = cells[last][0].point;
  const auto& mesh2d = cells[last][1].point;
  const auto& mesh3d = cells[last][2].point;
  shapes.expect(mesh3d.max_reserved_buffers <= mesh2d.max_reserved_buffers,
                "3-D mesh holds no more live buffers than 2-D");
  shapes.expect(mesh2d.sorted_messages > 0 && mesh3d.sorted_messages > 0 &&
                    direct.sorted_messages == 0,
                "routed last hops ship pre-sorted (zero-copy scatter fast "
                "path)");

  if (fault.any()) {
    // A lossy sweep must actually have been lossy — and recovered. The
    // occupancy comparison below is fault-free-only: retransmit-
    // perturbed flush timing skews items/msg either way on a healthy
    // lossy run.
    const auto& f2d = cells[last][1].point.faults;
    shapes.expect(f2d.faults_injected_drop + f2d.faults_injected_dup +
                          f2d.faults_injected_delay >
                      0,
                  "faulty sweep injected at least one fault on the 2-D "
                  "mesh at the largest scale");
  } else {
    shapes.expect(mesh2d.mean_occupancy > direct.mean_occupancy,
                  "fewer, fatter buffers: routed messages carry more "
                  "items than direct at the largest scale");
    // Zero-cost guarantee for FaultConfig{} (all zero): the default
    // config installs no decorators and counts nothing.
    const auto& f = cells[last][0].point.faults;
    shapes.expect(f.faults_injected_drop == 0 && f.retransmits == 0 &&
                      f.dup_drops == 0 && f.acks_sent == 0,
                  "fault-free sweep engaged none of the fault machinery");
  }

  // Tracing overhead A/B: the smallest WPs cell with event recording
  // runtime-disabled vs enabled. The record path is one predicted branch
  // when off and a 32-byte ring store when on (bench/micro_trace.cpp
  // pins both), so traced ns/item must stay within 5% of untraced. Five
  // interleaved off/on pairs, each pair yielding a ratio, and the median
  // ratio judged: adjacent runs see the same host conditions (this box's
  // run-to-run swing dwarfs the effect under test), and the median sheds
  // the scheduler's outliers.
  {
    const int procs0 = proc_counts[0];
    const util::Topology topo0(procs0, 1, 1);
    core::TramConfig tram0;
    tram0.scheme = core::Scheme::WPs;
    tram0.buffer_items = g;
    const bool was_tracing = trace::enabled();
    trace::phase("trace A/B");
    std::vector<double> ratios;
    double off_ns = 0.0, on_ns = 0.0;
    const double denom =
        static_cast<double>(updates * static_cast<std::uint64_t>(procs0));
    for (int rep = 0; rep < 5; ++rep) {
      trace::set_enabled(false);
      const auto untraced = bench::run_histogram(
          topo0, rt_cfg, tram0, updates, static_cast<int>(opt.trials));
      trace::set_enabled(true);
      const auto traced = bench::run_histogram(
          topo0, rt_cfg, tram0, updates, static_cast<int>(opt.trials));
      ratios.push_back(traced.seconds / untraced.seconds);
      off_ns = untraced.seconds * 1e9 / denom;
      on_ns = traced.seconds * 1e9 / denom;
    }
    trace::set_enabled(was_tracing);
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[ratios.size() / 2];
    std::printf("\ntrace overhead A/B: WPs@%d ns/item %.2f (untraced) vs "
                "%.2f (traced); median of %zu pair ratios %+.1f%%\n",
                procs0, off_ns, on_ns, ratios.size(),
                (median - 1.0) * 100.0);
    shapes.expect(median < 1.05,
                  "traced ns/item within 5% of untraced (median of "
                  "interleaved pairs)");
  }
  opt.finish_trace();
  shapes.report();
  return 0;
}
