/// Fig 11 reproduction: histogram with a small update count per PE (the
/// paper's 128K, scaled) — the flush-dominated regime standing in for
/// latency-sensitive applications with frequent flushes. Buffer sizes per
/// the paper: WW at 512, all others at 1024. Expectation: WPs clearly
/// best at scale; PP does not beat WPs (atomics overhead); WW worst at
/// the larger node counts.

#include <cstdio>

#include "hist_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig11_histogram_small: Fig 11")) return 2;

  const std::uint64_t updates = opt.quick ? 4'000 : 8'000;  // scaled 128K
  std::vector<int> node_counts = {2, 4, 8};
  if (opt.quick) node_counts = {2, 4};
  const int ppn = 2, wpp = 4;

  struct SchemeRun {
    std::string name;
    core::Scheme scheme;
    std::uint32_t buffer;
  };
  std::vector<SchemeRun> runs = {
      {"WW (512 buffer)", core::Scheme::WW, 512},
      {"WPs (1k buffer)", core::Scheme::WPs, 1024},
      {"PP (1k buffer)", core::Scheme::PP, 1024},
      {"WsP (1k buffer)", core::Scheme::WsP, 1024},
  };

  util::Table table("Fig 11: histogram, " + std::to_string(updates) +
                    " updates/PE (scaled 128K) — flush-heavy regime");
  std::vector<std::string> header{"scheme"};
  for (const int n : node_counts) header.push_back(std::to_string(n) + "n s");
  table.set_header(header);

  std::vector<std::vector<double>> secs(runs.size());
  for (std::size_t s = 0; s < runs.size(); ++s) {
    std::vector<std::string> row{runs[s].name};
    for (const int nodes : node_counts) {
      core::TramConfig tram;
      tram.scheme = runs[s].scheme;
      tram.buffer_items = runs[s].buffer;
      const auto point = bench::run_histogram(
          util::Topology(nodes, ppn, wpp), bench::bench_runtime(), tram,
          updates, static_cast<int>(opt.trials));
      secs[s].push_back(point.seconds);
      row.push_back(util::Table::fmt(point.seconds, 4));
    }
    table.add_row(row);
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = node_counts.size() - 1;
  shapes.expect(secs[1][last] <= secs[0][last],
                "WPs beats WW in the flush-heavy regime");
  shapes.expect(secs[2][last] >= 0.8 * secs[1][last],
                "PP does not meaningfully beat WPs (atomics overhead)");
  shapes.report();
  return 0;
}
