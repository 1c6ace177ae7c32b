/// \file quickstart.cpp
/// \brief Sixty-second tour of the TramLib public API.
///
/// We build a simulated SMP machine (2 nodes x 2 processes x 4 worker PEs),
/// create an aggregation domain for 8-byte items, and run a tiny
/// histogram-style exchange: every worker fires updates at random
/// destination workers, TramLib coalesces them per the chosen scheme, and
/// each delivered item increments a local counter.
///
///   ./quickstart --scheme WPs --buffer 512 --updates 100000
///
/// Try --scheme WW / PP / WsP / None and compare the printed message
/// counts: that difference is the whole point of the paper. Mesh2D and
/// Mesh3D route the same items over a virtual process mesh.

#include <cstdio>
#include <vector>

#include "core/tram.hpp"
#include "runtime/machine.hpp"
#include "util/cli.hpp"

using namespace tram;

int main(int argc, char** argv) {
  std::string scheme_name = "WPs";
  std::int64_t buffer = 512;
  std::int64_t updates = 100'000;
  util::Cli cli("quickstart: aggregate random updates through TramLib");
  cli.add_string("scheme", &scheme_name, "None|WW|WPs|WsP|PP|Mesh2D|Mesh3D");
  cli.add_int("buffer", &buffer, "items per aggregation buffer (g)");
  cli.add_int("updates", &updates, "updates per worker PE");
  if (!cli.parse(argc, argv)) return 2;

  const auto scheme = core::parse_scheme(scheme_name);
  if (!scheme) {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme_name.c_str());
    return 1;
  }

  // 1. A machine: 2 simulated nodes, 2 processes each, 4 worker PEs per
  //    process, with a Delta-like alpha-beta interconnect model.
  rt::Machine machine(util::Topology(2, 2, 4), rt::RuntimeConfig{});
  const int W = machine.topology().workers();

  // 2. An aggregation domain: the delivery lambda runs on the destination
  //    worker for every item, exactly like a Charm++ entry method.
  std::vector<util::Padded<std::uint64_t>> counters(W);
  core::TramConfig cfg;
  cfg.scheme = *scheme;
  cfg.buffer_items = static_cast<std::uint32_t>(buffer);
  core::TramDomain<std::uint64_t> tram(
      machine, cfg, [&](rt::Worker& w, const std::uint64_t& item) {
        counters[w.id()].value += item;
      });

  // 3. SPMD main: runs on every worker. insert() buffers the item; full
  //    buffers ship automatically; flush_all() ships the stragglers.
  const auto result = machine.run([&](rt::Worker& self) {
    auto& agg = tram.on(self);
    for (std::int64_t i = 0; i < updates; ++i) {
      const auto dest = static_cast<WorkerId>(self.rng().below(W));
      agg.insert(dest, 1);
      if (i % 64 == 0) self.progress();  // keep receiving while sending
    }
    agg.flush_all();
  });

  std::uint64_t total = 0;
  for (const auto& c : counters) total += c.value;
  const auto stats = tram.aggregate_stats();
  std::printf("scheme          : %s (buffer %lld)\n",
              core::to_string(*scheme), static_cast<long long>(buffer));
  std::printf("items delivered : %llu (expected %llu) %s\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(updates) * W,
              total == static_cast<std::uint64_t>(updates) * W ? "OK"
                                                               : "MISMATCH");
  std::printf("tram messages   : %llu (%.1f items/message)\n",
              static_cast<unsigned long long>(stats.msgs_shipped),
              stats.occupancy_at_ship.mean());
  std::printf("fabric messages : %llu\n",
              static_cast<unsigned long long>(result.fabric_messages));
  std::printf("wall time       : %.3f ms\n", result.wall_s * 1e3);
  return total == static_cast<std::uint64_t>(updates) * W ? 0 : 1;
}
