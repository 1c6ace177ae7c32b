/// Fig 14 reproduction: SSSP total time on a small graph over process
/// counts, schemes {WW, WPs, PP}. The paper's small problem (8M vertices
/// over 8-32 processes) stresses latency: workers starve waiting for
/// updates, so schemes that ship buffers sooner win.

#include <cstdio>

#include "sssp_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig14_sssp_small_time: Fig 14")) return 2;

  graph::GeneratorParams gp;
  gp.num_vertices = opt.quick ? 40'000 : 120'000;  // scaled from 8M
  gp.avg_degree = 8.0;
  const graph::Csr g = graph::build_uniform(gp);

  std::vector<int> proc_counts = {4, 8, 16};
  if (opt.quick) proc_counts = {4, 8};
  const std::vector<core::Scheme> schemes = {
      core::Scheme::WW, core::Scheme::WPs, core::Scheme::PP};

  util::Table table("Fig 14: SSSP small graph (" +
                    std::to_string(gp.num_vertices) +
                    " vertices, scaled from 8M) — total time (s)");
  std::vector<std::string> header{"scheme"};
  for (const int p : proc_counts) header.push_back(std::to_string(p) + "p s");
  table.set_header(header);

  std::vector<std::vector<double>> secs(schemes.size());
  bool all_verified = true;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> row{core::to_string(schemes[s])};
    for (const int procs : proc_counts) {
      core::TramConfig tram;
      tram.scheme = schemes[s];
      tram.buffer_items = 256;
      // procs processes spread over procs/2 nodes, 4 workers each.
      const auto topo = util::Topology(procs / 2, 2, 4);
      const auto point = bench::run_sssp(g, topo, tram,
                                         static_cast<int>(opt.trials));
      secs[s].push_back(point.seconds);
      all_verified = all_verified && point.verified;
      row.push_back(util::Table::fmt(point.seconds, 4));
    }
    table.add_row(row);
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = proc_counts.size() - 1;
  shapes.expect(all_verified, "distances match Dijkstra for every run");
  shapes.expect(secs[1][last] <= secs[0][last] * 1.1,
                "WPs at least matches WW on the small graph");
  shapes.report();
  return 0;
}
