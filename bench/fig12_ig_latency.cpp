/// Fig 12 reproduction: index-gather request->response latency per scheme
/// over node counts, buffer 1024 for all schemes (as in the paper).
/// Expectation: latency PP < WPs < WW — the fewer independent buffers a
/// scheme keeps, the faster each buffer fills and ships, so items wait
/// less.

#include <cstdio>

#include "ig_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig12_ig_latency: Fig 12")) return 2;

  const std::uint64_t requests = opt.quick ? 50'000 : 150'000;  // scaled 8M
  std::vector<int> node_counts = {2, 4, 8};
  if (opt.quick) node_counts = {2, 4};
  const int ppn = 2, wpp = 4;
  const std::vector<core::Scheme> schemes = {
      core::Scheme::WW, core::Scheme::WPs, core::Scheme::PP};

  util::Table table("Fig 12: index-gather mean item latency (us), " +
                    std::to_string(requests) + " requests/PE");
  std::vector<std::string> header{"scheme"};
  for (const int n : node_counts) header.push_back(std::to_string(n) + "n us");
  table.set_header(header);

  std::vector<std::vector<double>> lat(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> row{core::to_string(schemes[s])};
    for (const int nodes : node_counts) {
      core::TramConfig tram;
      tram.scheme = schemes[s];
      tram.buffer_items = 1024;
      const auto point = bench::run_ig(util::Topology(nodes, ppn, wpp), tram,
                                       requests,
                                       static_cast<int>(opt.trials));
      lat[s].push_back(point.mean_latency_us);
      row.push_back(util::Table::fmt(point.mean_latency_us, 1));
    }
    table.add_row(row);
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = node_counts.size() - 1;
  shapes.expect(lat[2][last] < lat[1][last],
                "PP latency below WPs at the largest node count");
  shapes.expect(lat[1][last] < lat[0][last],
                "WPs latency below WW at the largest node count");
  shapes.report();
  return 0;
}
