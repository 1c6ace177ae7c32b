/// Fig 1 reproduction: ping-pong RTT/2 between two nodes across message
/// sizes. Expectation: time is flat for small messages (alpha-dominated)
/// and grows once beta*bytes rivals alpha.

#include <cstdio>

#include "apps/pingpong.hpp"
#include "bench_common.hpp"
#include "runtime/machine.hpp"

using namespace tram;

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv, "fig01_pingpong: Fig 1 (alpha-beta ping-pong)"))
    return 2;

  // Same sweep as the paper's x-axis, truncated in quick mode.
  std::vector<std::size_t> sizes = {1,    4,     16,     64,     256,
                                    1024, 4096,  16384,  65536,  262144,
                                    1048576, 2097152};
  // Quick mode thins the middle of the sweep but keeps both regimes
  // (alpha-dominated small sizes, bandwidth-dominated large sizes).
  if (opt.quick) {
    sizes = {1, 64, 1024, 4096, 65536, 1048576, 2097152};
  }

  rt::Machine machine(util::Topology(2, 1, 1), bench::bench_runtime());
  apps::PingPongApp app(machine);

  util::Table table("Fig 1: ping-pong between two physical nodes (RTT/2)");
  table.set_header({"bytes", "one-way us"});

  std::vector<double> us;
  for (const std::size_t s : sizes) {
    const double t = bench::median_seconds(
        static_cast<int>(opt.trials), [&] {
          return app.run({.payload_bytes = s, .iterations = opt.quick ? 60 : 150})
              .one_way_us;
        });
    us.push_back(t);
    table.add_row({util::Table::fmt_int(static_cast<long long>(s)),
                   util::Table::fmt(t, 2)});
  }
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  // Alpha-dominated plateau: 1B and 1KB within 2x of each other.
  const std::size_t idx_1k = opt.quick ? 2 : 5;
  const std::size_t idx_4k = opt.quick ? 3 : 6;
  shapes.expect(us[idx_1k] < 2.0 * us[0] + 1.0,
                "small-message time is flat (latency-dominated)");
  // Bandwidth regime: the largest size is clearly slower than 4KB.
  shapes.expect(us.back() > 2.0 * us[idx_4k],
                "large messages are bandwidth-dominated");
  shapes.report();
  return 0;
}
