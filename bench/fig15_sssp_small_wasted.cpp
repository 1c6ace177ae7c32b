/// Fig 15 reproduction: SSSP small graph — *wasted updates* (received
/// updates that no longer improve a distance), normalized as a percentage
/// of received updates. Expectation: PP < WPs < WW — lower item latency
/// means fewer peers keep speculating against stale distances.

#include <cstdio>

#include "sssp_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig15_sssp_small_wasted: Fig 15")) return 2;

  graph::GeneratorParams gp;
  gp.num_vertices = opt.quick ? 40'000 : 120'000;
  gp.avg_degree = 8.0;
  const graph::Csr g = graph::build_uniform(gp);

  std::vector<int> proc_counts = {4, 8, 16};
  if (opt.quick) proc_counts = {4, 8};
  const std::vector<core::Scheme> schemes = {
      core::Scheme::WW, core::Scheme::WPs, core::Scheme::PP};

  util::Table table("Fig 15: SSSP small graph — wasted updates (% of "
                    "received)");
  std::vector<std::string> header{"scheme"};
  for (const int p : proc_counts) header.push_back(std::to_string(p) + "p %");
  table.set_header(header);

  std::vector<std::vector<double>> wasted(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> row{core::to_string(schemes[s])};
    for (const int procs : proc_counts) {
      core::TramConfig tram;
      tram.scheme = schemes[s];
      tram.buffer_items = 256;
      const auto topo = util::Topology(procs / 2, 2, 4);
      const auto point = bench::run_sssp(g, topo, tram,
                                         static_cast<int>(opt.trials));
      wasted[s].push_back(point.wasted_pct);
      row.push_back(util::Table::fmt(point.wasted_pct, 2));
    }
    table.add_row(row);
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = proc_counts.size() - 1;
  shapes.expect(wasted[2][last] <= wasted[1][last] * 1.05,
                "PP wasted updates at or below WPs");
  shapes.expect(wasted[1][last] <= wasted[0][last] * 1.05,
                "WPs wasted updates at or below WW");
  shapes.report();
  return 0;
}
