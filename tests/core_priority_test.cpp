/// Tests for the item-prioritization extension (paper future work):
/// correctness of the priority path across schemes, expedited transit,
/// flush ordering, and the fallback when priority buffering is off.

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "apps/sssp.hpp"
#include "core/tram.hpp"
#include "graph/generator.hpp"
#include "runtime/machine.hpp"
#include "util/timebase.hpp"
#include "util/topology.hpp"

namespace {

using namespace tram;
using core::Scheme;
using core::TramConfig;
using core::TramDomain;
using rt::Machine;
using rt::RuntimeConfig;
using rt::Worker;
using util::Topology;

class PrioritySchemes : public ::testing::TestWithParam<Scheme> {};

TEST_P(PrioritySchemes, PriorityItemsDeliveredExactlyOnce) {
  Machine m(Topology(2, 2, 2), RuntimeConfig::testing());
  const int W = m.topology().workers();
  std::atomic<std::uint64_t> bulk{0}, urgent{0};
  TramConfig cfg;
  cfg.scheme = GetParam();
  cfg.buffer_items = 128;
  cfg.priority_buffer_items = 8;
  TramDomain<std::uint64_t> tram(
      m, cfg, [&](Worker&, const std::uint64_t& v) {
        (v == 1 ? urgent : bulk)++;
      });
  m.run([&](Worker& w) {
    auto& h = tram.on(w);
    for (int i = 0; i < 2000; ++i) {
      const auto dest = static_cast<WorkerId>(w.rng().below(W));
      if (i % 10 == 0) {
        h.insert_priority(dest, 1);
      } else {
        h.insert(dest, 0);
      }
    }
    h.flush_all();
  });
  EXPECT_EQ(urgent.load(), static_cast<std::uint64_t>(W) * 200);
  EXPECT_EQ(bulk.load(), static_cast<std::uint64_t>(W) * 1800);
  const auto stats = tram.aggregate_stats();
  if (GetParam() == Scheme::None) {
    // None has no buffers at all: insert_priority falls back to insert.
    EXPECT_EQ(stats.priority_items, 0u);
  } else {
    EXPECT_EQ(stats.priority_items, static_cast<std::uint64_t>(W) * 200);
    EXPECT_GT(stats.priority_msgs, 0u);
  }
  EXPECT_EQ(stats.items_delivered, static_cast<std::uint64_t>(W) * 2000);
  EXPECT_EQ(m.total_pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, PrioritySchemes,
                         ::testing::Values(Scheme::None, Scheme::WW,
                                           Scheme::WPs, Scheme::WsP,
                                           Scheme::PP),
                         [](const auto& param_info) {
                           return std::string(core::to_string(param_info.param));
                         });

TEST(Priority, FallsBackWhenDisabled) {
  Machine m(Topology(1, 1, 2), RuntimeConfig::testing());
  std::atomic<std::uint64_t> got{0};
  TramConfig cfg;
  cfg.scheme = Scheme::WPs;
  cfg.buffer_items = 16;
  cfg.priority_buffer_items = 0;  // disabled
  TramDomain<std::uint64_t> tram(
      m, cfg, [&](Worker&, const std::uint64_t&) { got++; });
  m.run([&](Worker& w) {
    tram.on(w).insert_priority((w.id() + 1) % 2, 5);
    tram.on(w).flush_all();
  });
  EXPECT_EQ(got.load(), 2u);
  EXPECT_EQ(tram.aggregate_stats().priority_items, 0u);  // took bulk path
  EXPECT_EQ(tram.aggregate_stats().priority_msgs, 0u);
}

TEST(Priority, UrgentItemsSeeLowerLatencyThanBulk) {
  // With real delays, items in tiny priority buffers (4 items) must beat
  // items stuck in big bulk buffers (4096). The case runs twice: once
  // with every item inserted as bulk, once with every item sent through
  // insert_priority. Bulk messages ship expedited too (TramConfig's
  // default), so the two runs differ only in buffer size. Each item
  // carries its insert time and the deliver function measures it, the
  // way IndexGatherApp measures requests.
  const Topology topo(2, 1, 2);
  const int threads = topo.workers() + topo.procs();
  const int cpus = util::available_cpus();
  if (threads > cpus) {
    GTEST_SKIP() << "wall-clock latency ordering needs real parallelism "
                    "(workers + comm threads oversubscribe this host): "
                 << threads << " runtime threads, " << cpus << " CPUs";
  }
  rt::RuntimeConfig cfg;  // delta-like costs
  auto mean_latency = [&](bool priority) {
    Machine m(topo, cfg);
    const int W = m.topology().workers();
    TramConfig tc;
    tc.scheme = Scheme::WPs;
    tc.buffer_items = 4096;  // bulk path: slow to fill
    tc.priority_buffer_items = priority ? 4 : 0;
    std::atomic<std::uint64_t> total_ns{0}, count{0};
    TramDomain<std::uint64_t> tram(
        m, tc, [&](Worker&, const std::uint64_t& birth_ns) {
          total_ns += util::now_ns() - birth_ns;
          count++;
        });
    m.run([&](Worker& w) {
      auto& h = tram.on(w);
      for (int i = 0; i < 3000; ++i) {
        const auto dest = static_cast<WorkerId>(w.rng().below(W));
        if (priority) {
          h.insert_priority(dest, util::now_ns());
        } else {
          h.insert(dest, util::now_ns());
        }
        if (i % 64 == 0) w.progress();
      }
      h.flush_all();
    });
    EXPECT_EQ(count.load(), static_cast<std::uint64_t>(W) * 3000);
    return static_cast<double>(total_ns.load()) /
           static_cast<double>(count.load());
  };
  const double bulk_ns = mean_latency(false);
  const double prio_ns = mean_latency(true);
  EXPECT_LT(prio_ns, bulk_ns);
}

TEST(Priority, SsspWithPrioritizationStillCorrect) {
  graph::GeneratorParams gp;
  gp.num_vertices = 5000;
  gp.avg_degree = 6.0;
  const graph::Csr g = graph::build_uniform(gp);
  for (const Scheme s : {Scheme::WW, Scheme::WPs, Scheme::PP}) {
    Machine m(Topology(2, 2, 2), RuntimeConfig::testing());
    apps::SsspParams p;
    p.graph = &g;
    p.tram.scheme = s;
    p.tram.buffer_items = 128;
    p.tram.priority_buffer_items = 16;
    p.prioritize_urgent = true;
    p.delta = 16;
    apps::SsspApp app(m, p);
    const auto res = app.run();
    EXPECT_TRUE(res.verified) << core::to_string(s);
    EXPECT_GT(res.tram.priority_items, 0u) << core::to_string(s);
  }
}

TEST(Priority, FlushShipsPriorityPartialsFirst) {
  // Single-worker destination process: both messages land in one inbox,
  // where expedited dispatch order is deterministic.
  Machine m(Topology(2, 1, 1), RuntimeConfig::testing());
  std::atomic<int> order_first{0};  // 1 = urgent arrived first
  std::atomic<int> seen{0};
  TramConfig cfg;
  cfg.scheme = Scheme::WPs;
  cfg.buffer_items = 1024;
  cfg.priority_buffer_items = 1024;  // nothing ships before flush
  cfg.flush_on_idle = false;
  TramDomain<std::uint64_t> tram(
      m, cfg, [&](Worker&, const std::uint64_t& v) {
        if (seen.fetch_add(1) == 0 && v == 1) order_first = 1;
      });
  m.run([&](Worker& w) {
    if (w.id() != 0) return;
    auto& h = tram.on(w);
    h.insert(1, 0);           // bulk, buffered
    h.insert_priority(1, 1);  // urgent, buffered
    h.flush_all();            // priority buffer must ship first
  });
  EXPECT_EQ(seen.load(), 2);
  EXPECT_EQ(order_first.load(), 1);
  // Both partials left through flush_all, the urgent one as a priority
  // message (RoutedPriority.FlushShipsPriorityPartialsFirst pins the same
  // counts for the mesh).
  const auto stats = tram.aggregate_stats();
  EXPECT_EQ(stats.flush_msgs, 2u);
  EXPECT_EQ(stats.priority_msgs, 1u);
}

}  // namespace
