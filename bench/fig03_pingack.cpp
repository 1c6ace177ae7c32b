/// Fig 3 reproduction: PingAck, SMP (varying processes per node) vs
/// non-SMP, on 2 nodes. Expectation (paper section III-A): with one process
/// per node the dedicated comm thread serializes all traffic and SMP is
/// several times slower than non-SMP; adding processes (each with its own
/// comm thread) closes most of the gap.

#include <cstdio>

#include "apps/pingack.hpp"
#include "bench_common.hpp"
#include "runtime/machine.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig03_pingack: Fig 3 (SMP comm-thread woes)"))
    return 2;

  // 16 workers per node (scaled from the paper's 64); total message count
  // from node 0 is constant across configurations.
  const int workers_per_node = 16;
  const int total_msgs = opt.quick ? 16'000 : 48'000;
  const std::size_t payload = 64;

  util::Table table(
      "Fig 3: PingAck total time, 2 nodes, 16 worker PEs per node");
  table.set_header({"config", "time s"});

  struct Config {
    std::string name;
    int procs_per_node;
    bool smp;
  };
  std::vector<Config> configs = {
      {"non-SMP (16 procs x 1 worker)", workers_per_node, false},
      {"SMP 1 proc x 16 workers", 1, true},
      {"SMP 2 procs x 8 workers", 2, true},
      {"SMP 4 procs x 4 workers", 4, true},
      {"SMP 8 procs x 2 workers", 8, true},
  };

  std::vector<double> secs;
  for (const auto& c : configs) {
    const int wpp = workers_per_node / c.procs_per_node;
    rt::Machine machine(
        util::Topology(2, c.procs_per_node, wpp),
        c.smp ? bench::bench_runtime() : bench::bench_runtime_nonsmp());
    apps::PingAckApp app(machine);
    apps::PingAckParams params;
    params.messages_per_worker = total_msgs / workers_per_node;
    params.payload_bytes = payload;
    const double t = bench::median_seconds(
        static_cast<int>(opt.trials),
        [&] { return app.run(params).total_s; });
    secs.push_back(t);
    table.add_row({c.name, util::Table::fmt(t, 4)});
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  shapes.expect(secs[1] > 2.5 * secs[0],
                "SMP with 1 process per node is several times slower than "
                "non-SMP (paper: ~5x)");
  shapes.expect(secs[4] < secs[1],
                "more processes per node improves SMP PingAck");
  shapes.expect(secs[4] < 1.8 * secs[0],
                "8 processes per node approaches non-SMP");
  shapes.report();
  return 0;
}
