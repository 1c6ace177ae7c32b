/// Tests for the routed priority path (TramDomain::insert_priority):
/// priority items inserted *after* bulk must still deliver first across
/// multi-hop routes — for Mesh2D and Mesh3D — because the RoutedHeader
/// priority bit re-buckets them into priority slots at every
/// intermediate; plus exactly-once accounting for mixed bulk/priority
/// traffic and the fallback when the knob is off.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/tram.hpp"
#include "core/wire.hpp"
#include "runtime/machine.hpp"

namespace {

using namespace tram;

TEST(RoutedHeader, PriorityBitRoundTrips) {
  core::RoutedHeader hdr;
  EXPECT_FALSE(hdr.priority());
  hdr.flags |= core::RoutedHeader::kPriority;
  EXPECT_TRUE(hdr.priority());
  // The flag must not disturb the layout the entries decode against.
  static_assert(sizeof(core::RoutedHeader) == 8);
}

struct OrderParam {
  core::Scheme scheme;
  int procs;      // non-SMP process count
  WorkerId far;   // destination maximally distant from worker 0
  int min_hops;   // mesh distance 0 -> far (sanity anchor)
  std::string label() const {
    return std::string(core::to_string(scheme)) + "_ModeledFabric";
  }
};

class RoutedPriorityOrdering : public ::testing::TestWithParam<OrderParam> {
};

/// Worker 0 buffers a pile of bulk items toward the far corner of the
/// mesh, then inserts a handful of priority items to the same corner.
/// Bulk sits in big buffers until flush while priority ships through
/// small expedited buffers — and because every intermediate re-buckets
/// the flagged batch into its own priority slots and flushes them first,
/// the late-inserted urgent items arrive before any bulk item despite
/// crossing two or three hops.
TEST_P(RoutedPriorityOrdering, PriorityInsertedAfterBulkDeliversFirst) {
  const OrderParam param = GetParam();
  auto rt_cfg = rt::RuntimeConfig::testing();
  rt_cfg.dedicated_comm = false;
  rt::Machine machine(util::Topology(param.procs, 1, 1), rt_cfg);

  core::TramConfig cfg;
  cfg.scheme = param.scheme;
  cfg.buffer_items = 1024;       // bulk never fills: leaves only on flush
  cfg.priority_buffer_items = 4; // urgent ships on the 4th insert
  cfg.expedited = false;         // bulk rides the ordinary inbox

  constexpr std::uint64_t kBulk = 64;
  constexpr std::uint64_t kUrgent = 8;
  std::vector<std::uint64_t> order;  // written only by the far worker
  core::TramDomain<std::uint64_t> domain(
      machine, cfg, [&](rt::Worker& w, const std::uint64_t& v) {
        ASSERT_EQ(w.id(), param.far);
        order.push_back(v);
      });
  EXPECT_EQ(domain.mesh().hops(0, param.far), param.min_hops);

  machine.run([&](rt::Worker& self) {
    if (self.id() != 0) return;
    auto& h = domain.on(self);
    for (std::uint64_t i = 0; i < kBulk; ++i) {
      h.insert(param.far, 1000 + i);
    }
    for (std::uint64_t i = 0; i < kUrgent; ++i) {
      h.insert_priority(param.far, i);  // inserted last, must arrive first
    }
    h.flush_all();
  });

  ASSERT_EQ(order.size(), kBulk + kUrgent);
  for (std::uint64_t i = 0; i < kUrgent; ++i) {
    EXPECT_LT(order[i], 1000u)
        << "delivery slot " << i << " got bulk item " << order[i]
        << " ahead of a priority item";
  }
  const auto stats = domain.aggregate_stats();
  EXPECT_EQ(stats.items_delivered, kBulk + kUrgent);
  EXPECT_EQ(stats.priority_items, kUrgent);
  EXPECT_GT(stats.priority_msgs, 0u);
  // The route really was multi-hop: intermediates re-aggregated entries.
  EXPECT_GT(stats.routed_forwarded_items, 0u);
  EXPECT_EQ(machine.total_pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MeshesAndTransports, RoutedPriorityOrdering,
    ::testing::Values(
        // 3x3 mesh: 0 -> 8 differs in both dimensions (2 hops).
        OrderParam{core::Scheme::Mesh2D, 9, 8, 2},
        // 2x2x2 mesh: 0 -> 7 differs in all three dimensions (3 hops).
        OrderParam{core::Scheme::Mesh3D, 8, 7, 3}),
    [](const ::testing::TestParamInfo<OrderParam>& info) {
      return info.param.label();
    });

/// Mixed bulk/priority all-to-all: every item of both classes is
/// delivered exactly once to the right worker, across schemes and SMP
/// modes (the priority mirror of route_test's run_exchange sweep).
void run_priority_exchange(core::Scheme scheme, const util::Topology& topo,
                           rt::RuntimeConfig rt_cfg) {
  rt::Machine machine(topo, rt_cfg);
  const int W = topo.workers();
  constexpr std::uint64_t kPerDest = 40;  // every 4th is priority
  std::vector<std::atomic<std::uint64_t>> bulk(
      static_cast<std::size_t>(W));
  std::vector<std::atomic<std::uint64_t>> urgent(
      static_cast<std::size_t>(W));

  core::TramConfig cfg;
  cfg.scheme = scheme;
  cfg.buffer_items = 16;
  cfg.priority_buffer_items = 4;
  core::TramDomain<std::uint64_t> domain(
      machine, cfg, [&](rt::Worker& w, const std::uint64_t& item) {
        ASSERT_EQ(static_cast<WorkerId>(item % 1'000'000), w.id());
        auto& tally = item >= 1'000'000 ? urgent : bulk;
        tally[static_cast<std::size_t>(w.id())].fetch_add(
            1, std::memory_order_relaxed);
      });

  machine.run([&](rt::Worker& self) {
    auto& h = domain.on(self);
    for (WorkerId dest = 0; dest < W; ++dest) {
      for (std::uint64_t i = 0; i < kPerDest; ++i) {
        const auto d = static_cast<std::uint64_t>(dest);
        if (i % 4 == 0) {
          h.insert_priority(dest, 1'000'000 + d);
        } else {
          h.insert(dest, d);
        }
      }
      self.progress();
    }
    h.flush_all();
  });

  const std::uint64_t urgent_per_worker =
      (kPerDest / 4) * static_cast<std::uint64_t>(W);
  const std::uint64_t bulk_per_worker =
      (kPerDest - kPerDest / 4) * static_cast<std::uint64_t>(W);
  for (int w = 0; w < W; ++w) {
    EXPECT_EQ(urgent[static_cast<std::size_t>(w)].load(),
              urgent_per_worker)
        << "worker " << w;
    EXPECT_EQ(bulk[static_cast<std::size_t>(w)].load(), bulk_per_worker)
        << "worker " << w;
  }
  const auto stats = domain.aggregate_stats();
  EXPECT_EQ(stats.items_inserted,
            kPerDest * static_cast<std::uint64_t>(W) * W);
  EXPECT_EQ(stats.items_delivered, stats.items_inserted);
  EXPECT_EQ(stats.priority_items,
            urgent_per_worker * static_cast<std::uint64_t>(W));
  EXPECT_GT(stats.priority_msgs, 0u);
  EXPECT_EQ(machine.total_pending(), 0u);
}

TEST(RoutedPriority, MixedExchangeExactlyOnceSmp) {
  run_priority_exchange(core::Scheme::Mesh2D, util::Topology(2, 2, 2),
                        rt::RuntimeConfig::testing());
  run_priority_exchange(core::Scheme::Mesh3D, util::Topology(2, 2, 2),
                        rt::RuntimeConfig::testing());
}

TEST(RoutedPriority, MixedExchangeExactlyOnceNonSmp) {
  auto cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  const util::Topology topo(9, 1, 1);  // 3x3 / 1x3x3: multi-hop routes
  run_priority_exchange(core::Scheme::Mesh2D, topo, cfg);
  run_priority_exchange(core::Scheme::Mesh3D, topo, cfg);
}

/// flush_all ships the partial priority slot before the partial bulk
/// one, and counts both as flush messages — the same counts
/// Priority.FlushShipsPriorityPartialsFirst pins for WPs.
TEST(RoutedPriority, FlushShipsPriorityPartialsFirst) {
  auto rt_cfg = rt::RuntimeConfig::testing();
  rt_cfg.dedicated_comm = false;
  // Two single-worker processes: a one-hop route into one inbox, where
  // expedited dispatch order is deterministic.
  rt::Machine machine(util::Topology(2, 1, 1), rt_cfg);
  core::TramConfig cfg;
  cfg.scheme = core::Scheme::Mesh2D;
  cfg.buffer_items = 1024;
  cfg.priority_buffer_items = 1024;  // nothing ships before flush
  std::vector<std::uint64_t> order;  // written only by worker 1
  core::TramDomain<std::uint64_t> domain(
      machine, cfg,
      [&](rt::Worker&, const std::uint64_t& v) { order.push_back(v); });
  machine.run([&](rt::Worker& w) {
    if (w.id() != 0) return;
    auto& h = domain.on(w);
    h.insert(1, 0);           // bulk, buffered
    h.insert_priority(1, 1);  // urgent, buffered
    h.flush_all();            // priority slot must ship first
  });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 0}));
  const auto stats = domain.aggregate_stats();
  EXPECT_EQ(stats.flush_msgs, 2u);
  EXPECT_EQ(stats.priority_msgs, 1u);
}

TEST(RoutedPriority, FallsBackWhenDisabled) {
  auto rt_cfg = rt::RuntimeConfig::testing();
  rt_cfg.dedicated_comm = false;
  rt::Machine machine(util::Topology(4, 1, 1), rt_cfg);
  std::atomic<std::uint64_t> got{0};
  core::TramConfig cfg;
  cfg.scheme = core::Scheme::Mesh2D;
  cfg.buffer_items = 16;
  cfg.priority_buffer_items = 0;  // disabled
  core::TramDomain<std::uint64_t> domain(
      machine, cfg, [&](rt::Worker&, const std::uint64_t&) { got++; });
  machine.run([&](rt::Worker& w) {
    auto& h = domain.on(w);
    h.insert_priority((w.id() + 1) % 4, 5);
    h.flush_all();
  });
  EXPECT_EQ(got.load(), 4u);
  EXPECT_EQ(domain.aggregate_stats().priority_items, 0u);  // bulk path
  EXPECT_EQ(domain.aggregate_stats().priority_msgs, 0u);
}

}  // namespace
