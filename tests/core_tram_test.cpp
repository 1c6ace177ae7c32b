#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/grouping.hpp"
#include "core/tram.hpp"
#include "core/wire.hpp"
#include "runtime/machine.hpp"
#include "util/rng.hpp"
#include "util/spinlock.hpp"

namespace {

using namespace tram;
using core::Scheme;
using core::TramConfig;
using core::TramDomain;
using rt::Machine;
using rt::RuntimeConfig;
using rt::Worker;
using util::Topology;

/// Item carrying (dest, src, seq) so the receiver can verify routing and
/// exactly-once delivery without out-of-band state.
struct TaggedItem {
  static std::uint64_t make(WorkerId dest, WorkerId src, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(dest) << 48) |
           (static_cast<std::uint64_t>(src) << 32) | seq;
  }
  static WorkerId dest(std::uint64_t v) {
    return static_cast<WorkerId>(v >> 48);
  }
  static WorkerId src(std::uint64_t v) {
    return static_cast<WorkerId>((v >> 32) & 0xffff);
  }
  static std::uint32_t seq(std::uint64_t v) {
    return static_cast<std::uint32_t>(v);
  }
};

struct Param {
  Scheme scheme;
  std::uint32_t buffer;
  int nodes, ppn, wpp;
  std::string label() const {
    return std::string(core::to_string(scheme)) + "_g" +
           std::to_string(buffer) + "_" + std::to_string(nodes) + "n" +
           std::to_string(ppn) + "p" + std::to_string(wpp) + "w";
  }
};

class TramSchemes : public ::testing::TestWithParam<Param> {};

/// Every item inserted arrives exactly once, at the right worker, and
/// nothing remains pending — across all schemes, buffer sizes, and shapes.
TEST_P(TramSchemes, ExactlyOnceDeliveryToCorrectWorker) {
  const Param p = GetParam();
  Machine machine(Topology(p.nodes, p.ppn, p.wpp), RuntimeConfig::testing());
  const int W = machine.topology().workers();
  constexpr std::uint32_t kPerWorker = 3000;

  // seen[dest] maps (src, seq) -> count; guarded per destination because
  // only the owner writes, but read at the end from the test thread.
  std::vector<std::vector<std::uint32_t>> seen(
      W, std::vector<std::uint32_t>(W * kPerWorker, 0));
  std::atomic<std::uint64_t> misrouted{0};

  TramConfig cfg;
  cfg.scheme = p.scheme;
  cfg.buffer_items = p.buffer;
  TramDomain<std::uint64_t> tram(
      machine, cfg, [&](Worker& w, const std::uint64_t& item) {
        if (TaggedItem::dest(item) != w.id()) {
          misrouted++;
          return;
        }
        const auto src = static_cast<std::size_t>(TaggedItem::src(item));
        seen[w.id()][src * kPerWorker + TaggedItem::seq(item)]++;
      });

  machine.run([&](Worker& w) {
    auto& h = tram.on(w);
    for (std::uint32_t i = 0; i < kPerWorker; ++i) {
      const WorkerId dest =
          static_cast<WorkerId>(w.rng().below(static_cast<std::uint64_t>(W)));
      h.insert(dest, TaggedItem::make(dest, w.id(), i));
    }
    h.flush_all();
  });

  EXPECT_EQ(misrouted.load(), 0u);
  const auto stats = tram.aggregate_stats();
  EXPECT_EQ(stats.items_inserted, static_cast<std::uint64_t>(W) * kPerWorker);
  EXPECT_EQ(stats.items_delivered, stats.items_inserted);
  // Exactly-once: every (dest,src,seq) seen at most once, and the total
  // matches, so each is exactly once.
  std::uint64_t total = 0;
  for (int d = 0; d < W; ++d) {
    for (const auto c : seen[d]) {
      ASSERT_LE(c, 1u);
      total += c;
    }
  }
  EXPECT_EQ(total, stats.items_inserted);
  EXPECT_EQ(machine.total_pending(), 0u);
}

/// Without flush, short streams stay buffered (pending > 0 would hang QD),
/// so flush-on-idle must ship them; with explicit flush and idle flushing
/// disabled, exactly the explicit flush ships them.
TEST_P(TramSchemes, ExplicitFlushShipsPartials) {
  const Param p = GetParam();
  if (p.scheme == Scheme::None) GTEST_SKIP() << "None never buffers";
  if (p.buffer == 1) GTEST_SKIP() << "g=1 ships every insert; no partials";
  Machine machine(Topology(p.nodes, p.ppn, p.wpp), RuntimeConfig::testing());
  const int W = machine.topology().workers();

  std::atomic<std::uint64_t> delivered{0};
  TramConfig cfg;
  cfg.scheme = p.scheme;
  cfg.buffer_items = p.buffer;
  cfg.flush_on_idle = false;
  TramDomain<std::uint64_t> tram(
      machine, cfg,
      [&](Worker&, const std::uint64_t&) { delivered++; });

  // Insert fewer than one buffer's worth per destination, then flush.
  machine.run([&](Worker& w) {
    auto& h = tram.on(w);
    for (int i = 0; i < 5; ++i) {
      h.insert(static_cast<WorkerId>((w.id() + i + 1) % W),
               TaggedItem::make(0, w.id(), static_cast<std::uint32_t>(i)));
    }
    h.flush_all();
  });

  EXPECT_EQ(delivered.load(), static_cast<std::uint64_t>(W) * 5);
  const auto stats = tram.aggregate_stats();
  EXPECT_GT(stats.flush_msgs, 0u);
  // Flushed messages are resized: mean occupancy is far below g.
  EXPECT_LT(stats.occupancy_at_ship.mean(), p.buffer);
}

/// Message-count bounds from section III-C, measured per source unit.
TEST_P(TramSchemes, MessageCountWithinBounds) {
  const Param p = GetParam();
  Machine machine(Topology(p.nodes, p.ppn, p.wpp), RuntimeConfig::testing());
  const auto& topo = machine.topology();
  const auto W = static_cast<std::uint64_t>(topo.workers());
  const auto N = static_cast<std::uint64_t>(topo.procs());
  const auto t = static_cast<std::uint64_t>(topo.workers_per_proc());
  constexpr std::uint64_t z = 20'000;

  TramConfig cfg;
  cfg.scheme = p.scheme;
  cfg.buffer_items = p.buffer;
  cfg.flush_on_idle = false;
  TramDomain<std::uint64_t> tram(machine, cfg,
                                 [](Worker&, const std::uint64_t&) {});
  machine.run([&](Worker& w) {
    auto& h = tram.on(w);
    for (std::uint64_t i = 0; i < z; ++i) {
      h.insert(static_cast<WorkerId>(w.rng().below(W)), i);
      if (i % 64 == 0) w.progress();
    }
    h.flush_all();
  });
  const auto stats = tram.aggregate_stats();
  const bool per_process = p.scheme == Scheme::PP;
  const std::uint64_t sources = per_process ? N : W;
  const std::uint64_t z_src = per_process ? z * t : z;
  auto bounds = core::messages_per_source(p.scheme, z_src, p.buffer, N, t);
  if (per_process) {
    // Uncoordinated per-worker flushes: up to t rounds of N partials.
    bounds.upper = z_src / p.buffer + N * t;
  }
  const double per_src = static_cast<double>(stats.msgs_shipped) /
                         static_cast<double>(sources);
  EXPECT_GE(per_src, static_cast<double>(bounds.lower));
  EXPECT_LE(per_src, static_cast<double>(bounds.upper));
}

/// The section III-C memory formulas are upper bounds on what the
/// implementation actually reserves (buffers reserve lazily on first use).
TEST_P(TramSchemes, AllocatedMemoryWithinFormula) {
  const Param p = GetParam();
  if (p.scheme == Scheme::None) GTEST_SKIP() << "None has no buffers";
  Machine machine(Topology(p.nodes, p.ppn, p.wpp), RuntimeConfig::testing());
  const auto& topo = machine.topology();
  const auto W = static_cast<std::uint64_t>(topo.workers());
  const auto N = static_cast<std::uint64_t>(topo.procs());
  const auto t = static_cast<std::uint64_t>(topo.workers_per_proc());

  TramConfig cfg;
  cfg.scheme = p.scheme;
  cfg.buffer_items = p.buffer;
  TramDomain<std::uint64_t> tram(machine, cfg,
                                 [](Worker&, const std::uint64_t&) {});
  machine.run([&](Worker& w) {
    auto& h = tram.on(w);
    // Touch every destination so every buffer is reserved.
    for (WorkerId d = 0; d < static_cast<WorkerId>(W); ++d) {
      h.insert(d, 1);
    }
    h.flush_all();
  });
  const std::uint64_t m = sizeof(core::WireEntry<std::uint64_t>);
  const std::uint64_t formula_total =
      core::buffer_bytes_per_process(p.scheme, p.buffer, m, N, t) * N;
  EXPECT_LE(tram.allocated_buffer_bytes(), formula_total);
  EXPECT_GT(tram.allocated_buffer_bytes(), 0u);
}

TEST_P(TramSchemes, SelfSendDelivers) {
  const Param p = GetParam();
  Machine machine(Topology(p.nodes, p.ppn, p.wpp), RuntimeConfig::testing());
  std::atomic<std::uint64_t> delivered{0};
  TramConfig cfg;
  cfg.scheme = p.scheme;
  cfg.buffer_items = p.buffer;
  TramDomain<std::uint64_t> tram(
      machine, cfg, [&](Worker&, const std::uint64_t&) { delivered++; });
  machine.run([&](Worker& w) {
    auto& h = tram.on(w);
    for (int i = 0; i < 100; ++i) h.insert(w.id(), 7);
    h.flush_all();
  });
  EXPECT_EQ(delivered.load(),
            static_cast<std::uint64_t>(machine.topology().workers()) * 100);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesBuffersShapes, TramSchemes,
    ::testing::Values(
        // All schemes on a canonical 2-node SMP shape.
        Param{Scheme::None, 64, 2, 2, 2},
        Param{Scheme::WW, 64, 2, 2, 2},
        Param{Scheme::WPs, 64, 2, 2, 2},
        Param{Scheme::WsP, 64, 2, 2, 2},
        Param{Scheme::PP, 64, 2, 2, 2},
        // Buffer-size extremes.
        Param{Scheme::WW, 1, 2, 2, 2},
        Param{Scheme::WPs, 1, 2, 2, 2},
        Param{Scheme::PP, 1, 2, 2, 2},
        Param{Scheme::WW, 4096, 2, 2, 2},
        Param{Scheme::WPs, 4096, 2, 2, 2},
        Param{Scheme::WsP, 4096, 2, 2, 2},
        Param{Scheme::PP, 4096, 2, 2, 2},
        // Single-process machine: everything is shared-memory local.
        Param{Scheme::WPs, 128, 1, 1, 4},
        Param{Scheme::PP, 128, 1, 1, 4},
        // One worker per process: regroup degenerates to direct delivery.
        Param{Scheme::WPs, 128, 2, 2, 1},
        Param{Scheme::WsP, 128, 2, 2, 1},
        Param{Scheme::PP, 128, 2, 2, 1},
        // Wide SMP processes.
        Param{Scheme::WPs, 256, 2, 1, 8},
        Param{Scheme::WsP, 256, 2, 1, 8},
        Param{Scheme::PP, 256, 2, 1, 8}),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return param_info.param.label();
    });

TEST(TramDomain, NoneShipsOneMessagePerItem) {
  Machine machine(Topology(2, 1, 2), RuntimeConfig::testing());
  TramConfig cfg;
  cfg.scheme = Scheme::None;
  TramDomain<std::uint64_t> tram(machine, cfg,
                                 [](Worker&, const std::uint64_t&) {});
  machine.run([&](Worker& w) {
    if (w.id() != 0) return;
    auto& h = tram.on(w);
    for (int i = 0; i < 50; ++i) h.insert(3, 1);
  });
  const auto stats = tram.aggregate_stats();
  EXPECT_EQ(stats.msgs_shipped, 50u);
  EXPECT_DOUBLE_EQ(stats.occupancy_at_ship.mean(), 1.0);
}

TEST(TramDomain, RegroupMessagesOnlyForProcessAddressedSchemes) {
  for (const Scheme s : {Scheme::WW, Scheme::WPs, Scheme::WsP, Scheme::PP}) {
    Machine machine(Topology(2, 1, 4), RuntimeConfig::testing());
    TramConfig cfg;
    cfg.scheme = s;
    cfg.buffer_items = 32;
    TramDomain<std::uint64_t> tram(machine, cfg,
                                   [](Worker&, const std::uint64_t&) {});
    const int W = machine.topology().workers();
    machine.run([&](Worker& w) {
      auto& h = tram.on(w);
      for (std::uint32_t i = 0; i < 2000; ++i) {
        h.insert(static_cast<WorkerId>(w.rng().below(W)), i);
      }
      h.flush_all();
    });
    const auto stats = tram.aggregate_stats();
    if (core::process_addressed(s)) {
      EXPECT_GT(stats.regroup_msgs, 0u) << core::to_string(s);
    } else {
      EXPECT_EQ(stats.regroup_msgs, 0u) << core::to_string(s);
    }
  }
}

/// Regression: two PP domains with different item types on one machine
/// must not share buffers. (A per-instantiation key counter once made the
/// second domain reinterpret the first domain's buffers as its own type.)
TEST(TramDomain, TwoPpDomainsWithDifferentItemTypesCoexist) {
  struct BigItem {
    std::uint64_t a, b, c;
  };
  Machine machine(Topology(2, 2, 2), RuntimeConfig::testing());
  std::atomic<std::uint64_t> small_sum{0};
  std::atomic<std::uint64_t> big_bad{0};
  std::atomic<std::uint64_t> big_count{0};
  TramConfig cfg;
  cfg.scheme = Scheme::PP;
  cfg.buffer_items = 16;
  TramDomain<std::uint32_t> small(
      machine, cfg,
      [&](Worker&, const std::uint32_t& v) { small_sum += v; });
  TramDomain<BigItem> big(machine, cfg, [&](Worker&, const BigItem& v) {
    big_count++;
    if (v.a + v.b != v.c) big_bad++;  // integrity check
  });
  const int W = machine.topology().workers();
  machine.run([&](Worker& w) {
    for (std::uint32_t i = 0; i < 1000; ++i) {
      const auto dest =
          static_cast<WorkerId>(w.rng().below(static_cast<std::uint64_t>(W)));
      small.on(w).insert(dest, 1u);
      big.on(w).insert(dest, BigItem{i, 7, i + 7});
    }
    small.on(w).flush_all();
    big.on(w).flush_all();
  });
  EXPECT_EQ(small_sum.load(), static_cast<std::uint64_t>(W) * 1000);
  EXPECT_EQ(big_count.load(), static_cast<std::uint64_t>(W) * 1000);
  EXPECT_EQ(big_bad.load(), 0u);
}

TEST(TramDomain, RejectsTooManyWorkersPerProc) {
  // kMaxLocalWorkers bounds the WsP segment header; constructing a domain
  // on a wider process must fail loudly (the machine itself allows it).
  Machine wide(Topology(1, 1, core::kMaxLocalWorkers + 1),
               RuntimeConfig::testing());
  TramConfig cfg;
  EXPECT_THROW(
      (TramDomain<std::uint64_t>(wide, cfg,
                                 [](Worker&, const std::uint64_t&) {})),
      std::invalid_argument);
}

TEST(TramDomain, ResetStatsClearsCounters) {
  Machine machine(Topology(1, 1, 2), RuntimeConfig::testing());
  TramConfig cfg;
  cfg.scheme = Scheme::WPs;
  cfg.buffer_items = 8;
  TramDomain<std::uint64_t> tram(machine, cfg,
                                 [](Worker&, const std::uint64_t&) {});
  machine.run([&](Worker& w) {
    tram.on(w).insert((w.id() + 1) % 2, 1);
    tram.on(w).flush_all();
  });
  EXPECT_GT(tram.aggregate_stats().items_inserted, 0u);
  tram.reset_stats();
  EXPECT_EQ(tram.aggregate_stats().items_inserted, 0u);
  EXPECT_EQ(tram.aggregate_stats().msgs_shipped, 0u);
}

/// The wire entry is the paper's <item, dest_w> record and nothing else.
static_assert(sizeof(core::WireEntry<std::uint64_t>) == 16);

/// permute_sort_segments, the one grouping sort (WsP ship and the routed
/// last hop): on seeded random input, the counts are the rank histogram,
/// every segment holds only its own rank, and the output is a permutation
/// of the input.
TEST(Grouping, PermuteSortSegmentsGroupsByRank) {
  using Entry = core::WireEntry<std::uint64_t>;
  util::Xoshiro256 rng(2024);
  for (const int t : {1, 2, 7, 64}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{257}}) {
      std::vector<Entry> data(n);
      std::uint32_t histogram[core::kMaxLocalWorkers] = {};
      for (std::size_t i = 0; i < n; ++i) {
        data[i].dest = static_cast<WorkerId>(
            rng.below(static_cast<std::uint64_t>(t)));
        data[i].item = i;  // unique: makes the permutation check exact
        histogram[data[i].dest]++;
      }
      const std::vector<Entry> input = data;
      core::SegmentHeader header;
      core::permute_sort_segments(
          data.data(), n, t, [](WorkerId w) { return w; }, header);

      const std::string where =
          "t=" + std::to_string(t) + " n=" + std::to_string(n);
      std::size_t offset = 0;
      for (int r = 0; r < t; ++r) {
        EXPECT_EQ(header.counts[r], histogram[r]) << where << " r=" << r;
        for (std::uint32_t k = 0; k < header.counts[r]; ++k) {
          EXPECT_EQ(data[offset + k].dest, r) << where;
        }
        offset += header.counts[r];
      }
      EXPECT_EQ(offset, n) << where;
      std::vector<bool> seen(n, false);
      for (const Entry& e : data) {
        ASSERT_LT(e.item, n) << where;
        EXPECT_FALSE(seen[e.item]) << where;
        seen[e.item] = true;
        EXPECT_EQ(e.dest, input[e.item].dest) << where;
      }
    }
  }
}

/// parse_segments, the one validation of a pre-sorted batch (the WsP
/// scatter and the routed sorted last hop): a payload too short for its
/// SegmentHeader, and counts that overflow or fall short of the entries
/// that follow, are wire corruption and must abort.
TEST(SegmentWireDeathTest, TruncatedOverflowingOrShortAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  using Entry = core::WireEntry<std::uint64_t>;
  constexpr int kRanks = 4;
  std::vector<std::byte> buf(sizeof(core::SegmentHeader) +
                             3 * sizeof(Entry));
  core::SegmentHeader h;
  h.counts[0] = 1;
  h.counts[2] = 2;  // covers the three entries exactly
  std::memcpy(buf.data(), &h, sizeof h);
  const std::span<const std::byte> bytes(buf);
  const core::SegmentHeader ok =
      core::parse_segments(bytes, sizeof(Entry), kRanks);
  EXPECT_EQ(ok.counts[0], 1u);
  EXPECT_EQ(ok.counts[2], 2u);

  // Truncated: the payload ends inside the SegmentHeader.
  EXPECT_DEATH(core::parse_segments(bytes.first(sizeof h - 8),
                                    sizeof(Entry), kRanks),
               "truncated");
  // Overflowing: the counts claim three entries, two follow.
  EXPECT_DEATH(core::parse_segments(bytes.first(sizeof h + 2 * sizeof(Entry)),
                                    sizeof(Entry), kRanks),
               "segment counts cover 3 entries");
  // Short: the counts cover two of the three entries; a count past the
  // last local rank covers nothing.
  h.counts[2] = 1;
  h.counts[kRanks] = 1;
  std::memcpy(buf.data(), &h, sizeof h);
  EXPECT_DEATH(core::parse_segments(bytes, sizeof(Entry), kRanks),
               "segment counts cover 2 entries");
}

}  // namespace
