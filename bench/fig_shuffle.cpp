/// Out-of-core streaming shuffle: the first workload whose working set
/// deliberately exceeds its memory budget (default 8x). Sweeps the
/// virtual process count and compares direct WsP against 2-D and 3-D
/// mesh routing on the same mmap'd input file.
///
/// Verification is a pure function of the record multiset: the CRC64 of
/// the merged sorted output must equal an in-memory reference sort of
/// the input, identically for every (scheme, scale, transport, fault)
/// cell — the sorted stream does not depend on how records travelled.
/// Each row also asserts exactly-once delivery and that the staging
/// pool's high-water stayed under the budget. CI's bench-smoke job fails
/// on any `"verified": false` row.
///
/// With --fault-drop/--fault-dup/--fault-delay the same shuffle runs
/// over a lossy fabric through the reliability layer (src/fault/), and
/// the CRC must not move. Runs non-SMP (one worker per process). Emits
/// BENCH_shuffle.json (override with --json).

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "route/virtual_mesh.hpp"
#include "shuffle/shuffle_app.hpp"

using namespace tram;

namespace {

struct ShufflePoint : bench::RoutedPointCounters {
  double seconds = 0.0;
  std::uint64_t records = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_runs = 0;
  std::uint64_t merge_fanin = 0;
  std::uint64_t staging_peak = 0;
  std::uint64_t output_crc = 0;
  bool verified = true;
};

ShufflePoint run_shuffle(const util::Topology& topo,
                         const rt::RuntimeConfig& rt_cfg,
                         const core::TramConfig& tram_cfg,
                         const shuffle::ShuffleParams& base, int trials) {
  rt::Machine machine(topo, rt_cfg);
  shuffle::ShuffleParams params = base;
  params.tram = tram_cfg;
  shuffle::ShuffleApp app(machine, params);

  ShufflePoint point;
  point.seconds = bench::median_seconds(trials, [&] {
    const auto res = app.run();
    point.capture(res.tram, res.run, res.max_reserved_buffers,
                  machine.fault_stats());
    point.records = res.records_in;
    point.spill_bytes = res.spill_bytes;
    point.spill_runs = res.spill_runs;
    point.merge_fanin = res.merge_fanin_max;
    point.staging_peak = res.staging_peak_bytes;
    point.output_crc = res.output_crc;
    point.verified = point.verified && res.verified;
    return res.run.wall_s;
  });
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  bench::FaultOptions fault;
  std::string procs_arg;
  std::string bytes_arg;
  std::string budget_arg;
  std::string scheme_arg;
  std::string workdir = ".";
  opt.extra = [&](util::Cli& cli) {
    cli.add_string("bytes", &bytes_arg,
                   "total input bytes, e.g. 16M (default 16M; quick 4M)");
    cli.add_string("mem-budget", &budget_arg,
                   "staging+merge budget, e.g. 2M (default 2M; quick 512K)");
    cli.add_string("procs", &procs_arg,
                   "comma-separated virtual process counts to sweep");
    cli.add_string("scheme", &scheme_arg,
                   "run only this scheme (WsP, Mesh2D, Mesh3D)");
    cli.add_string("workdir", &workdir,
                   "directory for input/spill/output files");
    fault.register_cli(cli);
  };
  if (!opt.parse(argc, argv,
                 "fig_shuffle: out-of-core shuffle, direct vs mesh routing"))
    return 2;
  if (opt.json.empty()) opt.json = "BENCH_shuffle.json";

  std::uint64_t input_bytes = opt.quick ? 4ull << 20 : 16ull << 20;
  std::uint64_t budget = opt.quick ? 512ull << 10 : 2ull << 20;
  if (!bytes_arg.empty()) {
    input_bytes = bench::parse_size_bytes(bytes_arg);
    if (input_bytes == 0) {
      std::fprintf(stderr, "--bytes: cannot parse '%s'\n", bytes_arg.c_str());
      return 1;
    }
  }
  if (!budget_arg.empty()) {
    budget = bench::parse_size_bytes(budget_arg);
    if (budget == 0) {
      std::fprintf(stderr, "--mem-budget: cannot parse '%s'\n",
                   budget_arg.c_str());
      return 1;
    }
  }
  std::vector<int> proc_counts = opt.quick ? std::vector<int>{8, 16}
                                           : std::vector<int>{8, 16, 64};
  if (!bench::resolve_proc_counts(procs_arg, proc_counts)) return 1;

  std::vector<core::Scheme> schemes = {
      core::Scheme::WsP, core::Scheme::Mesh2D, core::Scheme::Mesh3D};
  if (!scheme_arg.empty()) {
    schemes.clear();
    for (const auto s : {core::Scheme::WsP, core::Scheme::Mesh2D,
                         core::Scheme::Mesh3D}) {
      if (scheme_arg == core::to_string(s)) schemes.push_back(s);
    }
    if (schemes.empty()) {
      std::fprintf(stderr, "--scheme: unknown scheme '%s'\n",
                   scheme_arg.c_str());
      return 1;
    }
  }

  const std::uint64_t records = input_bytes / sizeof(shuffle::Record);
  const std::string input_path = workdir + "/shuffle_input.bin";
  shuffle::write_random_input(input_path, records, /*seed=*/42);

  // The verification anchor. An in-memory reference sort is affordable up
  // to a generous bound; past it, the first cell's CRC anchors the rest
  // (cross-scheme/scale bit-identity is still fully checked).
  std::uint64_t reference_crc = 0;
  bool have_reference = false;
  if (input_bytes <= 64ull << 20) {
    reference_crc = shuffle::reference_sort_crc(input_path);
    have_reference = true;
  }

  util::Table table(
      "Out-of-core shuffle: " + std::to_string(records) + " records, budget " +
      std::to_string(budget >> 10) + " KiB (" +
      std::to_string(input_bytes / (budget ? budget : 1)) + "x), non-SMP" +
      (fault.any() ? ", faulty fabric" : ""));
  table.set_header({"procs", "scheme", "mesh", "spill KiB", "runs", "fanin",
                    "peak KiB", "fwd msgs", "rtx", "wall s", "ok"});

  bench::JsonReporter json("shuffle");
  bench::ShapeChecker shapes;
  bench::RoutedVerifySweep sweep;

  rt::RuntimeConfig rt_cfg = bench::bench_runtime_nonsmp();
  rt_cfg.fault = fault.to_config();

  shuffle::ShuffleParams base;
  base.input_path = input_path;
  base.output_path = workdir + "/shuffle_output.bin";
  base.spill_dir = workdir;
  base.mem_budget_bytes = budget;

  for (std::size_t pi = 0; pi < proc_counts.size(); ++pi) {
    const int procs = proc_counts[pi];
    const util::Topology topo(procs, 1, 1);
    sweep.start_scale();
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
      const auto point = run_shuffle(topo, rt_cfg, tram, base,
                                     static_cast<int>(opt.trials));
      if (!have_reference) {
        reference_crc = point.output_crc;  // first cell anchors the rest
        have_reference = true;
      }
      const bool verified =
          point.verified && point.output_crc == reference_crc;

      const double ns_per_record =
          point.records ? point.seconds * 1e9 /
                              static_cast<double>(point.records)
                        : 0.0;
      sweep.add(point, verified);

      table.add_row(
          {util::Table::fmt_int(procs), core::to_string(scheme), mesh,
           util::Table::fmt_int(
               static_cast<long long>(point.spill_bytes >> 10)),
           util::Table::fmt_int(static_cast<long long>(point.spill_runs)),
           util::Table::fmt_int(static_cast<long long>(point.merge_fanin)),
           util::Table::fmt_int(
               static_cast<long long>(point.staging_peak >> 10)),
           util::Table::fmt_int(
               static_cast<long long>(point.forwarded_messages)),
           util::Table::fmt_int(
               static_cast<long long>(point.faults.retransmits)),
           util::Table::fmt(point.seconds, 4), verified ? "yes" : "NO"});

      auto row =
          bench::make_routed_row(core::to_string(scheme), topo.to_string(),
                                 mesh, point, ns_per_record, verified);
      char extra[256];
      std::snprintf(
          extra, sizeof extra,
          "\"records\": %llu, \"input_bytes\": %llu, "
          "\"mem_budget_bytes\": %llu, \"spill_bytes\": %llu, "
          "\"spill_runs\": %llu, \"merge_fanin\": %llu, "
          "\"staging_peak_bytes\": %llu, \"output_crc\": \"%016llx\"",
          static_cast<unsigned long long>(point.records),
          static_cast<unsigned long long>(input_bytes),
          static_cast<unsigned long long>(budget),
          static_cast<unsigned long long>(point.spill_bytes),
          static_cast<unsigned long long>(point.spill_runs),
          static_cast<unsigned long long>(point.merge_fanin),
          static_cast<unsigned long long>(point.staging_peak),
          static_cast<unsigned long long>(point.output_crc));
      row.extra_json = extra;
      json.add(row);
    }
  }
  bench::emit(table, opt);
  json.write(opt.json);

  if (schemes.size() == 3) {
    sweep.standard_checks(
        shapes,
        "every cell verified: CRC64 equals the reference sort, delivery "
        "exactly-once, staging peak within budget");
  } else {
    shapes.expect(sweep.all_verified(),
                  "every cell verified against the reference CRC");
  }
  shapes.report();
  std::remove(input_path.c_str());
  std::remove(base.output_path.c_str());
  return 0;
}
