/// Fig 17 reproduction: SSSP large graph — wasted updates. Expectation:
/// unlike the small graph (Fig 15), the large, well-scaling problem shows
/// *no significant difference* in wasted updates across schemes: buffers
/// fill quickly everywhere, so scheme-induced latency differences shrink
/// relative to the work per phase.

#include <cmath>
#include <cstdio>

#include "sssp_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig17_sssp_large_wasted: Fig 17")) return 2;

  graph::GeneratorParams gp;
  gp.num_vertices = opt.quick ? 200'000 : 600'000;
  gp.avg_degree = 8.0;
  const graph::Csr g = graph::build_uniform(gp);

  const std::vector<int> node_counts = {1, 2, 4};  // see fig16 scale note
  const std::vector<core::Scheme> schemes = {core::Scheme::WW,
                                             core::Scheme::WPs};

  util::Table table("Fig 17: SSSP large graph — wasted updates (% of "
                    "received)");
  std::vector<std::string> header{"scheme"};
  for (const int n : node_counts) header.push_back(std::to_string(n) + "n %");
  table.set_header(header);

  std::vector<std::vector<double>> wasted(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> row{core::to_string(schemes[s])};
    for (const int nodes : node_counts) {
      core::TramConfig tram;
      tram.scheme = schemes[s];
      tram.buffer_items = 1024;
      const auto topo = util::Topology(nodes, 1, 4);  // see fig16 note
      const auto point = bench::run_sssp(g, topo, tram,
                                         static_cast<int>(opt.trials));
      wasted[s].push_back(point.wasted_pct);
      row.push_back(util::Table::fmt(point.wasted_pct, 2));
    }
    table.add_row(row);
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = node_counts.size() - 1;
  // "No significant difference": within 15 percentage points (the paper's
  // bars are visually close; ours carry run-to-run noise too).
  shapes.expect(std::abs(wasted[0][last] - wasted[1][last]) < 15.0,
                "wasted updates similar across WW and WPs on the large "
                "graph");
  shapes.report();
  return 0;
}
