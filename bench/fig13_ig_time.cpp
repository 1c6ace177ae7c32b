/// Fig 13 reproduction: index-gather *total time* per scheme over node
/// counts (same runs as Fig 12, other metric). Expectation: total-time
/// ordering differs from the latency ordering — WPs pays destination-side
/// grouping and PP pays atomics, so WW can stay competitive on total time
/// even while losing on latency.

#include <cstdio>

#include "ig_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig13_ig_time: Fig 13")) return 2;

  const std::uint64_t requests = opt.quick ? 50'000 : 150'000;
  std::vector<int> node_counts = {2, 4, 8};
  if (opt.quick) node_counts = {2, 4};
  const int ppn = 2, wpp = 4;
  const std::vector<core::Scheme> schemes = {
      core::Scheme::WW, core::Scheme::WPs, core::Scheme::PP};

  util::Table table("Fig 13: index-gather total time (s), " +
                    std::to_string(requests) + " requests/PE");
  std::vector<std::string> header{"scheme"};
  for (const int n : node_counts) header.push_back(std::to_string(n) + "n s");
  table.set_header(header);

  std::vector<std::vector<double>> secs(schemes.size());
  bool all_verified = true;
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> row{core::to_string(schemes[s])};
    for (const int nodes : node_counts) {
      core::TramConfig tram;
      tram.scheme = schemes[s];
      tram.buffer_items = 1024;
      const auto point = bench::run_ig(util::Topology(nodes, ppn, wpp), tram,
                                       requests,
                                       static_cast<int>(opt.trials));
      secs[s].push_back(point.seconds);
      all_verified = all_verified && point.verified;
      row.push_back(util::Table::fmt(point.seconds, 4));
    }
    table.add_row(row);
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = node_counts.size() - 1;
  shapes.expect(all_verified, "every response arrived with the right value");
  // The paper's total-time story: WW does not lose on total time the way
  // it loses on latency (grouping/atomics overheads bite WPs and PP).
  shapes.expect(secs[0][last] < 2.0 * secs[1][last],
                "WW total time stays within 2x of WPs (overhead, not "
                "latency, dominates IG total time)");
  shapes.report();
  return 0;
}
