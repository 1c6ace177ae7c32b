/// Ablation (paper section III-C): the closed-form cost analysis checked
/// against measured counters. For each scheme we run the histogram
/// benchmark in zero-delay mode and compare:
///   - messages sent per source unit against the z/g .. z/g + {Nt | N}
///     bounds;
///   - allocated buffer memory against the g*m*N[*t] formulas;
///   - the alpha-beta send-cost model against itself across buffer sizes
///     (the (z/g)*alpha + beta*b*z curve).
/// Every check reads counters or the model, so the exit code is the
/// number of failed checks.

#include <cstdio>

#include "apps/histogram.hpp"
#include "bench_common.hpp"
#include "core/tram_stats.hpp"
#include "runtime/machine.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "ablate_formulas: section III-C formulas"))
    return 2;

  const util::Topology topo(2, 2, 4);  // N=4 processes, t=4 workers
  const std::uint64_t z = 20'000;
  const std::uint32_t g = 512;
  const auto N = static_cast<std::uint64_t>(topo.procs());
  const auto t = static_cast<std::uint64_t>(topo.workers_per_proc());
  const auto W = static_cast<std::uint64_t>(topo.workers());

  util::Table table("Section III-C: measured vs formula (N=4, t=4, z=20k, "
                    "g=512)");
  table.set_header({"scheme", "msgs/src", "bound lo", "bound hi",
                    "buffer MB", "formula MB"});

  bench::ShapeChecker shapes;
  for (const auto scheme : core::aggregating_schemes()) {
    rt::Machine machine(topo, rt::RuntimeConfig::testing());
    apps::HistogramParams params;
    params.updates_per_worker = z;
    params.tram.scheme = scheme;
    params.tram.buffer_items = g;
    params.tram.flush_on_idle = false;  // exactly one flush, at the end
    apps::HistogramApp app(machine, params);
    const auto res = app.run();

    // Messages per source unit: per worker for WW/WPs/WsP, per process
    // (with z*t items) for PP.
    const bool per_process = scheme == core::Scheme::PP;
    const std::uint64_t sources = per_process ? N : W;
    const std::uint64_t z_src = per_process ? z * t : z;
    const double msgs_per_src =
        static_cast<double>(res.tram.msgs_shipped) /
        static_cast<double>(sources);
    auto bounds = core::messages_per_source(scheme, z_src, g, N, t);
    if (scheme == core::Scheme::PP) {
      // Section III-C assumes one coordinated flush per process. The Bale
      // histogram (like the paper's) has each of the t workers call flush
      // independently; early flushers ship partials while stragglers still
      // insert, so up to t flush rounds of N partials each can occur.
      bounds.upper = z_src / g + N * t;
    }

    const std::uint64_t entry = sizeof(core::WireEntry<std::uint64_t>);
    // Formula gives per-core / per-process; multiply out to machine-wide.
    const std::uint64_t formula_bytes =
        core::buffer_bytes_per_process(scheme, g, entry, N, t) * N;
    // Measured allocation can be below the formula (buffers reserve
    // lazily), never above.
    const std::uint64_t measured = res.allocated_buffer_bytes;

    table.add_row({core::to_string(scheme),
                   util::Table::fmt(msgs_per_src, 1),
                   util::Table::fmt_int(static_cast<long long>(bounds.lower)),
                   util::Table::fmt_int(static_cast<long long>(bounds.upper)),
                   util::Table::fmt(static_cast<double>(measured) / 1e6, 3),
                   util::Table::fmt(static_cast<double>(formula_bytes) / 1e6,
                                    3)});

    shapes.expect(msgs_per_src >= static_cast<double>(bounds.lower),
                  std::string(core::to_string(scheme)) +
                      ": messages/src >= z/g lower bound");
    shapes.expect(msgs_per_src <=
                      static_cast<double>(bounds.upper) * 1.001,
                  std::string(core::to_string(scheme)) +
                      ": messages/src <= upper bound");
    shapes.expect(measured <= formula_bytes,
                  std::string(core::to_string(scheme)) +
                      ": allocated buffer bytes <= g*m*N[*t] formula");
    shapes.expect(res.verified, std::string(core::to_string(scheme)) +
                                    ": histogram verified");
  }
  bench::emit(table, opt);

  // Send-cost model curve: (z/g) alpha + beta b z, per section III-C.
  const auto cm = bench::bench_cost_model();
  util::Table curve("Send-cost model: (z/g)*alpha + beta*b*z (z=1M items, "
                    "b=24B)");
  curve.set_header({"g", "modeled ms"});
  double prev = 1e30;
  bool monotone = true;
  for (const double gg : {1.0, 64.0, 256.0, 1024.0, 4096.0}) {
    const double ns = cm.aggregated_send_cost_ns(1e6, 24.0, gg);
    monotone = monotone && ns <= prev;
    prev = ns;
    curve.add_row({util::Table::fmt(gg, 0), util::Table::fmt(ns / 1e6, 3)});
  }
  bench::emit(curve, opt);
  shapes.expect(monotone,
                "modeled send cost decreases monotonically with buffer "
                "size");
  return shapes.report();
}
