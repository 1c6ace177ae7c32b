/// Fig 10 reproduction: histogram at a fixed node count, sweeping the
/// TramLib buffer size for schemes {WW, WPs, PP}. Expectation: the
/// process-level schemes improve (or hold) with larger buffers; WW
/// degrades once buffers stop filling (z per destination < g) because its
/// sends become flush-dominated.

#include <cstdio>

#include "hist_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig10_histogram_buffer: Fig 10")) return 2;

  // Paper: 8-node runs, buffers 512..4096, 1M updates/PE. Scaled: 4 nodes
  // x 4 workers = 16 destination PEs; z chosen so z/destination sits
  // between 512 and 4096 — the same straddle as the paper's run. One
  // process per node keeps total threads under the core count, so modeled
  // costs are not buried in scheduler noise.
  const std::uint64_t updates = opt.quick ? 24'000 : 48'000;
  const int nodes = 4, ppn = 1, wpp = 4;
  const std::vector<std::uint32_t> buffers = {512, 1024, 2048, 4096};
  const std::vector<core::Scheme> schemes = {
      core::Scheme::WW, core::Scheme::WPs, core::Scheme::PP};

  util::Table table("Fig 10: histogram buffer-size sweep, " +
                    std::to_string(nodes) + " nodes, " +
                    std::to_string(updates) + " updates/PE");
  std::vector<std::string> header{"scheme"};
  for (const auto b : buffers) {
    header.push_back(std::to_string(b) + " s");
    header.push_back(std::to_string(b) + " flush%");
  }
  table.set_header(header);

  std::vector<std::vector<double>> secs(schemes.size());
  std::vector<std::vector<double>> flush_frac(schemes.size());
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    std::vector<std::string> row{core::to_string(schemes[s])};
    for (const auto b : buffers) {
      core::TramConfig tram;
      tram.scheme = schemes[s];
      tram.buffer_items = b;
      const auto point = bench::run_histogram(
          util::Topology(nodes, ppn, wpp), bench::bench_runtime(), tram,
          updates, static_cast<int>(opt.trials));
      secs[s].push_back(point.seconds);
      const double ff = point.tram_messages
                            ? 100.0 *
                                  static_cast<double>(point.flush_messages) /
                                  static_cast<double>(point.tram_messages)
                            : 0.0;
      flush_frac[s].push_back(ff);
      row.push_back(util::Table::fmt(point.seconds, 4));
      row.push_back(util::Table::fmt(ff, 0));
    }
    table.add_row(row);
  }
  bench::emit(table, opt);

  // Scale note: the paper's WW *time* degradation past 2k buffers comes
  // from per-PE buffer footprint (512 destinations x multi-KB buffers
  // thrashing caches) — invisible at 16 workers. What is visible, and what
  // we check, is the mechanism behind it: at 4096 WW's sends become purely
  // flush-driven (buffers never fill) while the process-level schemes keep
  // filling theirs.
  bench::ShapeChecker shapes;
  shapes.expect(secs[1].back() <= secs[1].front() * 1.5,
                "WPs holds (within noise) with larger buffers");
  shapes.expect(flush_frac[0].back() > 95.0,
                "WW sends are entirely flush-driven at 4096 (buffers never "
                "fill)");
  shapes.expect(flush_frac[0].back() > flush_frac[0].front() + 30.0,
                "WW flush share rises steeply with buffer size");
  shapes.expect(flush_frac[1].back() < flush_frac[0].back(),
                "WPs buffers still fill where WW's no longer do");
  shapes.report();
  return 0;
}
