/// \file alltoall.cpp
/// \brief All-to-all personalized exchange — the paper's other use-case
/// family (short, bounded streams where flush costs dominate).
///
/// Every worker sends `per-pair` items to every other worker, then
/// flushes. With few items per destination pair the WW scheme degenerates
/// into pure flush traffic (N*t nearly-empty messages per worker), while
/// the per-process schemes coalesce across destination workers — compare
/// the message counts this prints. The routed schemes (Mesh2D/Mesh3D)
/// coalesce further still: a worker only buffers per mesh coordinate, so
/// flush traffic shrinks from O(N) to O(d*N^(1/d)) messages at the cost
/// of multi-hop forwarding (the "fwd msgs" column).
///
///   ./alltoall --per-pair 100 --buffer 1024 [--route-dims 2x2]

#include <atomic>
#include <cstdio>

#include "route/domain.hpp"
#include "runtime/machine.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace tram;

int main(int argc, char** argv) {
  std::int64_t per_pair = 100;
  std::int64_t buffer = 1024;
  std::array<int, 3> route_dims{0, 0, 0};
  util::Cli cli("alltoall: short personalized exchange per scheme");
  cli.add_int("per-pair", &per_pair, "items per (source, destination) pair");
  cli.add_int("buffer", &buffer, "aggregation buffer size");
  cli.add_dims("route-dims", &route_dims,
               "mesh extents for the routed schemes (AxB[xC])");
  if (!cli.parse(argc, argv)) return 2;

  util::Table table("All-to-all: items per pair = " +
                    std::to_string(per_pair));
  table.set_header({"scheme", "msgs", "flush msgs", "fwd msgs", "items/msg",
                    "wall ms", "ok"});

  auto schemes = core::all_schemes();
  for (const auto s : core::routed_schemes()) schemes.push_back(s);

  for (const auto scheme : schemes) {
    rt::Machine machine(util::Topology(2, 2, 4), rt::RuntimeConfig{});
    const int W = machine.topology().workers();
    std::atomic<std::uint64_t> received{0};

    core::TramConfig cfg;
    cfg.scheme = scheme;
    cfg.buffer_items = static_cast<std::uint32_t>(buffer);
    // Explicit extents only fit the 2-D mesh of this 4-process machine;
    // the 3-D mesh always auto-factors.
    if (scheme == core::Scheme::Mesh2D) cfg.route_dims = route_dims;
    route::Domain<std::uint64_t> domain(
        machine, cfg, [&](rt::Worker&, const std::uint64_t&) { received++; });

    const auto result = machine.run([&](rt::Worker& self) {
      auto agg = domain.on(self);
      for (WorkerId dest = 0; dest < W; ++dest) {
        if (dest == self.id()) continue;
        for (std::int64_t i = 0; i < per_pair; ++i) {
          agg.insert(dest, static_cast<std::uint64_t>(i));
        }
        self.progress();
      }
      agg.flush_all();
    });

    const auto stats = domain.aggregate_stats();
    const std::uint64_t expected = static_cast<std::uint64_t>(W) *
                                   (W - 1) * per_pair;
    std::string name = core::to_string(scheme);
    if (const auto* mesh = domain.mesh()) {
      name += " (" + mesh->to_string() + ")";
    }
    table.add_row(
        {name,
         util::Table::fmt_int(static_cast<long long>(stats.msgs_shipped)),
         util::Table::fmt_int(static_cast<long long>(stats.flush_msgs)),
         util::Table::fmt_int(
             static_cast<long long>(stats.routed_forward_msgs)),
         util::Table::fmt(stats.occupancy_at_ship.mean(), 1),
         util::Table::fmt(result.wall_s * 1e3, 2),
         received.load() == expected ? "yes" : "NO"});
  }
  table.print();
  return 0;
}
