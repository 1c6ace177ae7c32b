/// Tests for topological routing (core/virtual_mesh.hpp, core/router.hpp
/// and TramDomain's mesh path): mesh factorization and coordinates,
/// dimension-ordered next-hop chains, the full delivery lifecycle over the
/// 1-D mesh of WPs/WsP and the multi-hop meshes across transports x SMP
/// modes, forwarded-hop accounting, and the O(d*N^(1/d)) live-buffer bound
/// against WPs's O(N).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/router.hpp"
#include "core/tram.hpp"
#include "core/tram_stats.hpp"
#include "core/virtual_mesh.hpp"
#include "core/wire.hpp"
#include "runtime/machine.hpp"
#include "util/timebase.hpp"

namespace {

using namespace tram;
using core::Router;
using core::VirtualMesh;

TEST(VirtualMesh, AutoFactorBalanced) {
  EXPECT_EQ(VirtualMesh::auto_factor(64, 2).to_string(), "8x8");
  EXPECT_EQ(VirtualMesh::auto_factor(64, 3).to_string(), "4x4x4");
  EXPECT_EQ(VirtualMesh::auto_factor(27, 3).to_string(), "3x3x3");
  EXPECT_EQ(VirtualMesh::auto_factor(12, 2).to_string(), "3x4");
  EXPECT_EQ(VirtualMesh::auto_factor(1, 2).to_string(), "1x1");
  // Primes degenerate gracefully: routing becomes single-hop.
  EXPECT_EQ(VirtualMesh::auto_factor(7, 2).to_string(), "1x7");
}

TEST(VirtualMesh, CoordsRoundTrip) {
  const std::vector<int> dims{2, 3, 4};
  const VirtualMesh mesh(24, dims);
  for (ProcId p = 0; p < 24; ++p) {
    // Rebuild p by substituting its own digits into process 0.
    ProcId q = 0;
    for (int k = 0; k < mesh.ndims(); ++k) {
      q = mesh.with_coord(q, k, mesh.coord(p, k));
    }
    EXPECT_EQ(q, p);
    EXPECT_EQ(mesh.first_mismatch(p, p), mesh.ndims());
    EXPECT_EQ(mesh.hops(p, p), 0);
  }
}

TEST(VirtualMesh, RejectsBadShapes) {
  const std::vector<int> wrong{4, 4};
  EXPECT_THROW(VirtualMesh(15, wrong), std::invalid_argument);
  const std::vector<int> zero{0, 4};
  EXPECT_THROW(VirtualMesh(0, zero), std::invalid_argument);
  EXPECT_THROW(VirtualMesh::auto_factor(8, 4), std::invalid_argument);
}

TEST(Router, DimensionOrderedChainsTerminate) {
  const VirtualMesh mesh = VirtualMesh::auto_factor(64, 3);
  const Router router(mesh);
  for (ProcId src = 0; src < 64; src += 7) {
    for (ProcId dst = 0; dst < 64; ++dst) {
      ProcId here = src;
      int hops = 0;
      int last_dim = -1;
      while (true) {
        const Router::Route& r = router.route(here, dst);
        if (r.dim == mesh.ndims()) break;
        EXPECT_GT(r.dim, last_dim);  // dimension order is strict
        last_dim = r.dim;
        here = r.proc;
        ASSERT_LE(++hops, mesh.ndims());
      }
      EXPECT_EQ(here, dst);
      EXPECT_EQ(hops, mesh.hops(src, dst));
    }
  }
}

/// Every (src, dst) entry of the routing table must meet the mesh
/// invariants of dimension-ordered routing, for several mesh shapes —
/// including degenerate (prime, extent-1) ones: the hop corrects the
/// lowest mismatched dimension, changes exactly that coordinate (to the
/// destination's), takes one hop off the remaining distance, and its slot
/// maps back to the same dimension and next-hop process. ships_final must
/// imply the hop terminates.
TEST(Router, TableMeetsMeshInvariants) {
  struct Shape {
    int procs;
    std::vector<int> dims;
  };
  const std::vector<Shape> shapes = {
      {24, {2, 3, 4}}, {64, {8, 8}},  {64, {4, 4, 4}},
      {27, {3, 3, 3}}, {12, {3, 4}},  {7, {1, 7}},
      {8, {8, 1}},     {6, {1, 2, 3}}};
  for (const auto& shape : shapes) {
    const VirtualMesh mesh(shape.procs, shape.dims);
    const Router router(mesh);
    for (ProcId here = 0; here < shape.procs; ++here) {
      EXPECT_EQ(router.row(here), &router.route(here, 0));
      for (ProcId dst = 0; dst < shape.procs; ++dst) {
        const Router::Route& r = router.route(here, dst);
        const int dim = r.dim;
        const std::string where = mesh.to_string() + " " +
                                  std::to_string(here) + "->" +
                                  std::to_string(dst);
        EXPECT_EQ(dim, mesh.first_mismatch(here, dst)) << where;
        for (int k = 0; k < mesh.ndims(); ++k) {
          EXPECT_EQ(mesh.coord(r.proc, k),
                    k == dim ? mesh.coord(dst, k) : mesh.coord(here, k))
              << where << " dim " << k;
        }
        EXPECT_EQ(mesh.hops(r.proc, dst),
                  dim == mesh.ndims() ? 0 : mesh.hops(here, dst) - 1)
            << where;
        EXPECT_EQ(router.dim_of_slot(r.slot), dim) << where;
        EXPECT_EQ(router.ship_target(here, r.slot), r.proc) << where;
        // A final slot's ship terminates: no further hop from the
        // target to the destination.
        if (router.ships_final(r.slot)) {
          EXPECT_EQ(mesh.hops(r.proc, dst), 0)
              << mesh.to_string() << " " << here << "->" << dst;
        }
      }
    }
    // The local slot and every highest-nontrivial-dimension slot ship
    // final; lower dimensions with a nontrivial dimension above do not.
    EXPECT_TRUE(router.ships_final(router.local_slot()));
    int highest_nontrivial = -1;
    for (int k = 0; k < mesh.ndims(); ++k) {
      if (mesh.dim_size(k) > 1) highest_nontrivial = k;
    }
    for (int s = 0; s < router.local_slot(); ++s) {
      EXPECT_EQ(router.ships_final(s),
                router.dim_of_slot(s) >= highest_nontrivial)
          << mesh.to_string() << " slot " << s;
    }
  }
}

/// Wire-level validation of the sorted last-hop variant: truncated or
/// bad-magic prefixes are wire corruption and must abort cleanly.
TEST(RoutedWireDeathTest, TruncatedOrCorruptHeaderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::array<std::byte, sizeof(core::RoutedSortedHeader)> buf{};
  core::RoutedHeader hdr;

  // Shorter than the fixed 8-byte prefix.
  EXPECT_DEATH(core::parse_routed_header(
                   std::span<const std::byte>(buf.data(), 4), 1),
               "truncated");

  // Unknown magic.
  hdr.magic = 0xdeadbeef;
  std::memcpy(buf.data(), &hdr, sizeof hdr);
  EXPECT_DEATH(core::parse_routed_header(
                   std::span<const std::byte>(buf.data(), sizeof hdr), 1),
               "bad magic");

  // Sorted message into a multi-worker process without its SegmentHeader.
  hdr.magic = core::RoutedHeader::kSortedMagic;
  std::memcpy(buf.data(), &hdr, sizeof hdr);
  EXPECT_DEATH(core::parse_routed_header(
                   std::span<const std::byte>(buf.data(), sizeof hdr), 4),
               "truncated");

  // The same prefix is a complete, valid message for one worker per
  // process (trivial grouping needs no counts)...
  const core::RoutedWire w1 = core::parse_routed_header(
      std::span<const std::byte>(buf.data(), sizeof hdr), 1);
  EXPECT_TRUE(w1.sorted);
  EXPECT_EQ(w1.header_bytes, sizeof(core::RoutedHeader));
  // ...and with the counts present, valid for a multi-worker process.
  const core::RoutedWire w4 = core::parse_routed_header(
      std::span<const std::byte>(buf.data(), buf.size()), 4);
  EXPECT_TRUE(w4.sorted);
  EXPECT_EQ(w4.header_bytes, sizeof(core::RoutedSortedHeader));
}

TEST(Router, SlotLayoutRoundTrips) {
  const std::vector<int> dims{3, 4};
  const VirtualMesh mesh(12, dims);
  const Router router(mesh);
  EXPECT_EQ(router.slots(), 3 + 4 + 1);
  EXPECT_EQ(router.dim_of_slot(router.local_slot()), mesh.ndims());
  for (ProcId here = 0; here < 12; ++here) {
    EXPECT_EQ(router.ship_target(here, router.local_slot()), here);
    for (ProcId dst = 0; dst < 12; ++dst) {
      const Router::Route& r = router.route(here, dst);
      if (r.dim == mesh.ndims()) {
        EXPECT_EQ(r.slot, router.local_slot());
        continue;
      }
      EXPECT_EQ(router.dim_of_slot(r.slot), r.dim);
      EXPECT_EQ(router.ship_target(here, r.slot), r.proc);
    }
  }
}

TEST(EntryBuffer, HeaderBytesShipInPlace) {
  core::EntryBuffer<core::WireEntry<std::uint64_t>> buf;
  buf.set_header_bytes(sizeof(core::RoutedHeader));
  for (std::uint64_t i = 0; i < 3; ++i) {
    core::WireEntry<std::uint64_t> e;
    e.dest = static_cast<WorkerId>(i);
    e.item = 100 + i;
    buf.push(e, 8);
  }
  core::RoutedHeader hdr;
  hdr.dim = 1;
  hdr.hop = 2;
  std::memcpy(buf.header(), &hdr, sizeof hdr);
  const util::PayloadRef payload = buf.take();
  ASSERT_EQ(payload.size(), sizeof(core::RoutedHeader) +
                                3 * sizeof(core::WireEntry<std::uint64_t>));
  core::RoutedHeader out;
  std::memcpy(&out, payload.data(), sizeof out);
  EXPECT_EQ(out.magic, core::RoutedHeader::kMagic);
  EXPECT_EQ(out.dim, 1);
  EXPECT_EQ(out.hop, 2);
  const auto entries = rt::decode_payload<core::WireEntry<std::uint64_t>>(
      payload.span().subspan(sizeof out));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[2].item, 102u);
}

/// Every worker sends `per_dest` items to every worker (itself included);
/// checks exactly-once delivery to the right worker under the given
/// scheme/topology/transport, and returns the merged stats.
struct ExchangeResult {
  core::WorkerTramStats stats;
  rt::Machine::RunResult run;
  std::uint64_t max_reserved = 0;
};

ExchangeResult run_exchange(core::Scheme scheme, const util::Topology& topo,
                            rt::RuntimeConfig rt_cfg,
                            std::uint64_t per_dest = 40,
                            std::uint32_t g = 16) {
  rt::Machine machine(topo, rt_cfg);
  const int W = topo.workers();
  std::vector<std::atomic<std::uint64_t>> received(
      static_cast<std::size_t>(W));

  core::TramConfig cfg;
  cfg.scheme = scheme;
  cfg.buffer_items = g;
  core::TramDomain<std::uint64_t> domain(
      machine, cfg, [&](rt::Worker& w, const std::uint64_t& item) {
        // The item encodes its intended destination; TramDomain already
        // aborts on a misrouted WireEntry, this checks end-to-end intent.
        ASSERT_EQ(static_cast<WorkerId>(item % 1000), w.id());
        received[static_cast<std::size_t>(w.id())].fetch_add(
            1, std::memory_order_relaxed);
      });

  ExchangeResult res;
  res.run = machine.run([&](rt::Worker& self) {
    auto& h = domain.on(self);
    for (WorkerId dest = 0; dest < W; ++dest) {
      for (std::uint64_t i = 0; i < per_dest; ++i) {
        h.insert(dest, i * 1000 + static_cast<std::uint64_t>(dest));
      }
      self.progress();
    }
    h.flush_all();
  });

  res.stats = domain.aggregate_stats();
  res.max_reserved = domain.max_reserved_buffers();
  const std::uint64_t expected_per_worker =
      per_dest * static_cast<std::uint64_t>(W);
  for (int w = 0; w < W; ++w) {
    EXPECT_EQ(received[static_cast<std::size_t>(w)].load(),
              expected_per_worker)
        << "worker " << w;
  }
  EXPECT_EQ(res.stats.items_inserted, expected_per_worker * W);
  EXPECT_EQ(res.stats.items_delivered, expected_per_worker * W);
  // The last hop ships pre-sorted (the local slot at minimum) unless the
  // receiver groups (WPs), and every final batch is consumed as zero-copy
  // sub-views.
  if (scheme == core::Scheme::WPs) {
    EXPECT_EQ(res.stats.routed_sorted_msgs, 0u);
  } else {
    EXPECT_GT(res.stats.routed_sorted_msgs, 0u);
  }
  EXPECT_GT(res.stats.routed_subview_deliveries, 0u);
  EXPECT_LE(res.stats.routed_sorted_msgs, res.stats.routed_hop_msgs);
  // A routed message is one aggregation buffer: no ship, at a source or
  // at an intermediate, carries more than g entries.
  EXPECT_LE(res.stats.occupancy_at_ship.max(), static_cast<double>(g));
  return res;
}

TEST(RoutedDomain, DeliversExactlyOnceSmpModeledFabric) {
  // 8 workers over 4 processes: the 1-D mesh and both mesh shapes.
  for (const auto scheme : {core::Scheme::WPs, core::Scheme::WsP,
                            core::Scheme::Mesh2D, core::Scheme::Mesh3D}) {
    run_exchange(scheme, util::Topology(2, 2, 2),
                 rt::RuntimeConfig::testing());
  }
  // 8 processes x 2 workers: a 2x2x2 mesh, where items cross up to three
  // hops, so SMP intermediates forward too.
  const auto res = run_exchange(core::Scheme::Mesh3D,
                                util::Topology(4, 2, 2),
                                rt::RuntimeConfig::testing());
  EXPECT_GT(res.stats.routed_forwarded_items, 0u);
}

TEST(RoutedDomain, DeliversExactlyOnceNonSmp) {
  auto cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  const util::Topology topo(8, 1, 1);  // 8 single-worker processes
  // The 2x4 and 2x2x2 meshes forward through intermediates; on the 1-D
  // mesh of WPs and WsP every process is one hop away.
  for (const auto scheme : {core::Scheme::WPs, core::Scheme::WsP,
                            core::Scheme::Mesh2D, core::Scheme::Mesh3D}) {
    const auto fwd =
        run_exchange(scheme, topo, cfg).stats.routed_forwarded_items;
    if (core::is_routed(scheme)) {
      EXPECT_GT(fwd, 0u) << core::to_string(scheme);
    } else {
      EXPECT_EQ(fwd, 0u) << core::to_string(scheme);
    }
  }
}

TEST(RoutedDomain, ExplicitDimsHonored) {
  rt::Machine machine(util::Topology(6, 1, 1),
                      rt::RuntimeConfig::testing());
  core::TramConfig cfg;
  cfg.scheme = core::Scheme::Mesh2D;
  cfg.route_dims = {3, 2, 0};
  core::TramDomain<std::uint64_t> domain(machine, cfg,
                                         [](rt::Worker&, auto&) {});
  EXPECT_EQ(domain.mesh().to_string(), "3x2");
  // Dims that do not factor the process count are rejected.
  cfg.route_dims = {4, 2, 0};
  EXPECT_THROW(core::TramDomain<std::uint64_t>(machine, cfg,
                                               [](rt::Worker&, auto&) {}),
               std::invalid_argument);
  // More extents than the scheme has dimensions: a mismatched
  // --scheme/--route-dims pair, not a topology to silently truncate.
  cfg.route_dims = {3, 2, 1};
  EXPECT_THROW(core::TramDomain<std::uint64_t>(machine, cfg,
                                               [](rt::Worker&, auto&) {}),
               std::invalid_argument);
}

TEST(RoutedDomain, RejectsUnsupportedConfigKnobs) {
  rt::Machine machine(util::Topology(4, 1, 1),
                      rt::RuntimeConfig::testing());
  const auto nop = [](rt::Worker&, const std::uint64_t&) {};
  core::TramConfig cfg;
  cfg.scheme = core::Scheme::Mesh2D;
  // flush_on_idle=false would strand intermediate-hop buffers forever
  // (quiescence would hang); the constructor must refuse it.
  cfg.flush_on_idle = false;
  EXPECT_THROW(core::TramDomain<std::uint64_t>(machine, cfg, nop),
               std::invalid_argument);
  // The 1-D mesh has no intermediate hops, so WPs and WsP drain through
  // an explicit flush alone.
  for (const auto scheme : {core::Scheme::WPs, core::Scheme::WsP}) {
    cfg.scheme = scheme;
    EXPECT_NO_THROW(core::TramDomain<std::uint64_t>(machine, cfg, nop))
        << core::to_string(scheme);
  }
  // The priority knob is implemented for routed schemes (see
  // route_priority_test.cpp); it must construct cleanly.
  cfg.scheme = core::Scheme::Mesh2D;
  cfg.flush_on_idle = true;
  cfg.priority_buffer_items = 8;
  EXPECT_NO_THROW(core::TramDomain<std::uint64_t>(machine, cfg, nop));
}

/// Forwarded-hop accounting: on a mesh, an item whose destination differs
/// from its source in k dimensions is re-aggregated k-1 times — d-1 for
/// antipodal traffic. The counters must match the closed form exactly.
TEST(RoutedDomain, ForwardedHopCountersMatchMesh) {
  auto cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  const int P = 16;
  const util::Topology topo(P, 1, 1);
  const std::uint64_t per_dest = 20;

  for (const auto scheme :
       {core::Scheme::Mesh2D, core::Scheme::Mesh3D}) {
    const auto res = run_exchange(scheme, topo, cfg, per_dest);
    const VirtualMesh mesh =
        VirtualMesh::auto_factor(P, core::mesh_ndims(scheme));
    // Expected re-aggregations: sum over ordered pairs of (hops - 1).
    std::uint64_t expected_forwarded = 0;
    for (ProcId s = 0; s < P; ++s) {
      for (ProcId t = 0; t < P; ++t) {
        const int hops = mesh.hops(s, t);
        if (hops > 1) {
          expected_forwarded +=
              per_dest * static_cast<std::uint64_t>(hops - 1);
        }
      }
    }
    EXPECT_EQ(res.stats.routed_forwarded_items, expected_forwarded)
        << core::to_string(scheme);
    // Every intermediate re-ship is a cross-process message with hops > 0,
    // and the transport saw exactly the ships the domain accounted.
    EXPECT_EQ(res.run.forwarded_messages, res.stats.routed_forward_msgs);
    if (expected_forwarded > 0) {
      EXPECT_GT(res.stats.routed_forward_msgs, 0u);
    }
    EXPECT_GE(res.stats.routed_hop_msgs, res.stats.routed_forward_msgs);
  }
}

/// The acceptance bound: at 64 virtual processes, a routed source worker
/// holds O(d*P^(1/d)) live buffers where direct WPs holds O(P).
TEST(RoutedDomain, LiveBufferBoundAt64Processes) {
  auto cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  const int P = 64;
  const util::Topology topo(P, 1, 1);
  const std::uint64_t per_dest = 2;
  const std::uint32_t g = 8;

  // WPs: every worker ends up reserving one buffer per process, the
  // live-buffer count of its 1-D mesh.
  std::uint64_t direct_reserved = 0;
  {
    rt::Machine machine(topo, cfg);
    std::atomic<std::uint64_t> received{0};
    core::TramConfig tram;
    tram.scheme = core::Scheme::WPs;
    tram.buffer_items = g;
    core::TramDomain<std::uint64_t> domain(
        machine, tram,
        [&](rt::Worker&, const std::uint64_t&) { received++; });
    machine.run([&](rt::Worker& self) {
      auto& h = domain.on(self);
      for (WorkerId dest = 0; dest < P; ++dest) {
        for (std::uint64_t i = 0; i < per_dest; ++i) h.insert(dest, i);
      }
      h.flush_all();
    });
    EXPECT_EQ(received.load(),
              per_dest * static_cast<std::uint64_t>(P) * P);
    direct_reserved = domain.max_reserved_buffers();
    EXPECT_EQ(direct_reserved,
              core::routed_buffers_per_core(domain.mesh().dims()));
    EXPECT_EQ(direct_reserved, static_cast<std::uint64_t>(P));
  }

  // Routed: sum(dims_k - 1) + 1 buffers, asserted against the formula.
  for (const auto scheme :
       {core::Scheme::Mesh2D, core::Scheme::Mesh3D}) {
    const auto res = run_exchange(scheme, topo, cfg, per_dest, g);
    const VirtualMesh mesh =
        VirtualMesh::auto_factor(P, core::mesh_ndims(scheme));
    const std::uint64_t bound = core::routed_buffers_per_core(mesh.dims());
    EXPECT_LE(res.max_reserved, bound) << core::to_string(scheme);
    EXPECT_LT(res.max_reserved, direct_reserved)
        << core::to_string(scheme);
  }
  // 2-D: 2*(8-1)+1 = 15 vs 64. 3-D: 3*(4-1)+1 = 10 vs 64.
  EXPECT_EQ(core::routed_buffers_per_core(
                VirtualMesh::auto_factor(P, 2).dims()),
            15u);
  EXPECT_EQ(core::routed_buffers_per_core(
                VirtualMesh::auto_factor(P, 3).dims()),
            10u);
}

/// Item-carried latency stamps survive multi-hop forwarding: intermediates
/// re-bucket entries without rewriting them, so the latency the deliver
/// function measures runs from the original insert, not the last hop.
TEST(RoutedDomain, LatencyTracksAcrossHops) {
  auto rt_cfg = rt::RuntimeConfig::testing();
  rt_cfg.dedicated_comm = false;
  rt::Machine machine(util::Topology(9, 1, 1), rt_cfg);
  core::TramConfig cfg;
  cfg.scheme = core::Scheme::Mesh2D;  // 3x3
  cfg.buffer_items = 4;
  std::atomic<std::uint64_t> start_ns{0};
  std::atomic<std::uint64_t> count{0}, total_ns{0}, stale{0};
  core::TramDomain<std::uint64_t> domain(
      machine, cfg, [&](rt::Worker&, const std::uint64_t& birth_ns) {
        if (birth_ns < start_ns.load()) stale++;  // stamp was rewritten
        total_ns += util::now_ns() - birth_ns;
        count++;
      });
  machine.run([&](rt::Worker& self) {
    if (self.id() == 0) {
      start_ns = util::now_ns();
      // Destination 8 differs from 0 in both mesh dimensions: 2 hops.
      for (int i = 0; i < 8; ++i) domain.on(self).insert(8, util::now_ns());
      domain.on(self).flush_all();
    }
  });
  const auto stats = domain.aggregate_stats();
  EXPECT_EQ(stats.items_delivered, 8u);
  EXPECT_EQ(count.load(), 8u);
  EXPECT_EQ(stale.load(), 0u);
  EXPECT_GT(total_ns.load(), 0u);
  EXPECT_GT(stats.routed_forwarded_items, 0u);
}

}  // namespace
