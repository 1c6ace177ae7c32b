/// End-to-end proof that the reliability protocol (src/fault/) restores
/// exactly-once delivery and bit-for-bit results on a faulty fabric:
/// histogram bin counts, SSSP FNV distance hashes, and PHOLD event counts
/// across {direct WsP, Mesh2D, Mesh3D} x {drop 5%, dup 5%, drop+dup+delay},
/// each lossy run observing at least one injected fault and the matching
/// recovery (retransmit / dup-drop). Plus the SMP sorted-scatter path
/// (frame stripping in front of RoutedSortedHeader), a same-seed replay
/// producing identical results, and a one-way SMP transfer settled by
/// standalone acks alone.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "apps/phold.hpp"
#include "apps/sssp.hpp"
#include "core/scheme.hpp"
#include "core/tram_stats.hpp"
#include "graph/generator.hpp"
#include "runtime/machine.hpp"

namespace {

using namespace tram;

struct FaultMode {
  const char* name;
  fault::FaultConfig cfg;
};

std::vector<FaultMode> fault_modes() {
  fault::FaultConfig drop5;
  drop5.drop_rate = 0.05;
  drop5.seed = 11;
  fault::FaultConfig dup5;
  dup5.dup_rate = 0.05;
  dup5.seed = 12;
  fault::FaultConfig all;
  all.drop_rate = 0.04;
  all.dup_rate = 0.04;
  all.delay_ns = 30'000;
  all.delay_rate = 0.5;  // half the packets lag: genuine reordering
  all.seed = 13;
  return {{"drop5", drop5}, {"dup5", dup5}, {"drop+dup+delay", all}};
}

const std::vector<core::Scheme> kSchemes = {
    core::Scheme::WsP, core::Scheme::Mesh2D, core::Scheme::Mesh3D};

/// Non-SMP deterministic-cost config with the given faults.
rt::RuntimeConfig faulty_runtime(const fault::FaultConfig& f) {
  rt::RuntimeConfig cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  cfg.fault = f;
  return cfg;
}

/// Every lossy run must observe its faults firing AND the matching
/// recovery machinery engaging.
void expect_faults_observed(const core::FaultStats& fs,
                            const fault::FaultConfig& cfg,
                            const std::string& what) {
  if (cfg.drop_rate > 0.0) {
    EXPECT_GE(fs.faults_injected_drop, 1u) << what;
    EXPECT_GE(fs.retransmits, 1u) << what;
  }
  if (cfg.dup_rate > 0.0) {
    EXPECT_GE(fs.faults_injected_dup, 1u) << what;
    EXPECT_GE(fs.dup_drops, 1u) << what;
  }
  if (cfg.delay_ns > 0) {
    EXPECT_GE(fs.faults_injected_delay, 1u) << what;
  }
}

// ---- histogram: bin counts bit-for-bit ----

apps::HistogramParams histogram_params(core::Scheme scheme) {
  apps::HistogramParams p;
  p.updates_per_worker = 1500;
  p.bins_per_worker = 256;
  p.progress_interval = 64;
  p.tram.scheme = scheme;
  p.tram.buffer_items = 64;
  return p;
}

TEST(FaultReliability, HistogramExactlyOnceAndBitForBit) {
  const util::Topology topo(8, 1, 1);

  // Fault-free reference: the full distributed table, per worker.
  std::vector<std::vector<std::uint64_t>> ref;
  {
    rt::Machine machine(topo, faulty_runtime({}));
    apps::HistogramApp app(machine, histogram_params(core::Scheme::WsP));
    const auto res = app.run();
    ASSERT_TRUE(res.verified);
    for (WorkerId w = 0; w < topo.workers(); ++w) {
      ref.push_back(app.table_slice(w));
    }
  }

  for (const auto scheme : kSchemes) {
    for (const auto& mode : fault_modes()) {
      const std::string what = std::string("histogram ") +
                               core::to_string(scheme) + " " + mode.name;
      rt::Machine machine(topo, faulty_runtime(mode.cfg));
      apps::HistogramApp app(machine, histogram_params(scheme));
      const auto res = app.run();
      EXPECT_TRUE(res.verified) << what;
      EXPECT_EQ(res.tram.items_inserted, res.tram.items_delivered) << what;
      for (WorkerId w = 0; w < topo.workers(); ++w) {
        EXPECT_EQ(app.table_slice(w), ref[static_cast<std::size_t>(w)])
            << what << " worker " << w;
      }
      expect_faults_observed(machine.fault_stats(), mode.cfg, what);
    }
  }
}

// ---- SSSP: FNV distance hash bit-for-bit ----

std::uint64_t distance_hash(const apps::SsspApp& app,
                            const graph::Csr& g) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    h ^= app.distance(v);
    h *= 1099511628211ULL;  // FNV-1a fold per vertex
  }
  return h;
}

TEST(FaultReliability, SsspDistanceHashBitForBit) {
  graph::GeneratorParams gp;
  gp.num_vertices = 3000;
  gp.avg_degree = 6.0;
  gp.seed = 5;
  const graph::Csr g = graph::build_uniform(gp);
  const util::Topology topo(8, 1, 1);

  apps::SsspParams params;
  params.graph = &g;
  params.delta = 8;
  params.verify = true;
  params.prioritize_urgent = true;  // priority path rides the faults too
  params.tram.buffer_items = 128;
  params.tram.priority_buffer_items = 8;

  std::uint64_t ref_hash = 0;
  {
    params.tram.scheme = core::Scheme::WsP;
    rt::Machine machine(topo, faulty_runtime({}));
    apps::SsspApp app(machine, params);
    const auto res = app.run();
    ASSERT_TRUE(res.verified);
    ref_hash = distance_hash(app, g);
  }

  for (const auto scheme : kSchemes) {
    for (const auto& mode : fault_modes()) {
      const std::string what =
          std::string("sssp ") + core::to_string(scheme) + " " + mode.name;
      params.tram.scheme = scheme;
      rt::Machine machine(topo, faulty_runtime(mode.cfg));
      apps::SsspApp app(machine, params);
      const auto res = app.run();
      EXPECT_TRUE(res.verified) << what;  // matches Dijkstra
      EXPECT_EQ(res.tram.items_inserted, res.tram.items_delivered) << what;
      EXPECT_EQ(distance_hash(app, g), ref_hash) << what;
      expect_faults_observed(machine.fault_stats(), mode.cfg, what);
    }
  }
}

// ---- PHOLD: machine-wide event count bit-for-bit ----

apps::PholdParams phold_params(core::Scheme scheme) {
  apps::PholdParams p;
  p.lps_per_worker = 8;
  p.init_events_per_lp = 1;
  p.lookahead = 1.0;
  p.mean_delay = 1.0;
  p.remote_prob = 0.5;
  p.end_time = 40.0;
  p.tram.scheme = scheme;
  p.tram.buffer_items = 32;
  return p;
}

TEST(FaultReliability, PholdEventCountBitForBit) {
  const util::Topology topo(8, 1, 1);

  std::uint64_t ref_events = 0;
  {
    rt::Machine machine(topo, faulty_runtime({}));
    apps::PholdApp app(machine, phold_params(core::Scheme::WsP));
    const auto res = app.run();
    ref_events = res.events_processed;
    ASSERT_GT(ref_events, 0u);
  }

  for (const auto scheme : kSchemes) {
    for (const auto& mode : fault_modes()) {
      const std::string what =
          std::string("phold ") + core::to_string(scheme) + " " + mode.name;
      rt::Machine machine(topo, faulty_runtime(mode.cfg));
      apps::PholdApp app(machine, phold_params(scheme));
      const auto res = app.run();
      EXPECT_EQ(res.events_processed, ref_events) << what;
      EXPECT_EQ(res.tram.items_inserted, res.tram.items_delivered) << what;
      expect_faults_observed(machine.fault_stats(), mode.cfg, what);
    }
  }
}

// ---- SMP: frame stripping ahead of the sorted-scatter fast path ----

/// With workers_per_proc > 1 a routed last hop ships a RoutedSortedHeader
/// and the receiver scatters refcounted sub-views of the slab — all
/// behind the stripped ReliableHeader. The comm-thread handoff is also
/// what the TSan job watches here.
TEST(FaultReliability, SmpSortedScatterSurvivesFaults) {
  const util::Topology topo(2, 2, 2);  // 4 procs x 2 workers, SMP

  std::vector<std::vector<std::uint64_t>> ref;
  {
    rt::RuntimeConfig cfg = rt::RuntimeConfig::testing();
    rt::Machine machine(topo, cfg);
    apps::HistogramApp app(machine,
                           histogram_params(core::Scheme::Mesh2D));
    const auto res = app.run();
    ASSERT_TRUE(res.verified);
    for (WorkerId w = 0; w < topo.workers(); ++w) {
      ref.push_back(app.table_slice(w));
    }
  }

  fault::FaultConfig f;
  f.drop_rate = 0.04;
  f.dup_rate = 0.04;
  f.delay_ns = 30'000;
  f.delay_rate = 0.5;
  f.seed = 21;
  rt::RuntimeConfig cfg = rt::RuntimeConfig::testing();
  cfg.fault = f;  // SMP: dedicated comm threads drive the protocol
  const std::string what = "smp histogram Mesh2D";
  rt::Machine machine(topo, cfg);
  apps::HistogramApp app(machine, histogram_params(core::Scheme::Mesh2D));
  const auto res = app.run();
  EXPECT_TRUE(res.verified) << what;
  EXPECT_EQ(res.tram.items_inserted, res.tram.items_delivered) << what;
  for (WorkerId w = 0; w < topo.workers(); ++w) {
    EXPECT_EQ(app.table_slice(w), ref[static_cast<std::size_t>(w)])
        << what << " worker " << w;
  }
  expect_faults_observed(machine.fault_stats(), f, what);
}

// ---- same seed, same results ----

/// Two runs under the same fault seed produce identical tables and both
/// recover exactly-once — the end-to-end face of the schedule's
/// replayability (the schedule function itself is proven pure in
/// fault_wire_test). rto is raised past the run length so no probe fires
/// spuriously while acks drain, keeping the runs free of timing-dependent
/// retransmits.
TEST(FaultReliability, SameSeedReplaysSameResults) {
  const util::Topology topo(4, 1, 1);
  fault::FaultConfig f;
  f.dup_rate = 0.3;
  f.seed = 99;
  // Far past any plausible scheduler stall on a loaded CI box: a probe
  // before the acks drain would be spurious, and the test asserts none.
  f.rto_ns = 2'000'000'000;

  auto run_once = [&](std::vector<std::vector<std::uint64_t>>& tables,
                      core::FaultStats& fs) {
    rt::Machine machine(topo, faulty_runtime(f));
    apps::HistogramApp app(machine, histogram_params(core::Scheme::WsP));
    const auto res = app.run();
    ASSERT_TRUE(res.verified);
    ASSERT_EQ(res.tram.items_inserted, res.tram.items_delivered);
    for (WorkerId w = 0; w < topo.workers(); ++w) {
      tables.push_back(app.table_slice(w));
    }
    fs = machine.fault_stats();
  };

  std::vector<std::vector<std::uint64_t>> t1, t2;
  core::FaultStats fs1, fs2;
  run_once(t1, fs1);
  run_once(t2, fs2);
  EXPECT_EQ(t1, t2);
  EXPECT_GE(fs1.dup_drops, 1u);
  EXPECT_GE(fs2.dup_drops, 1u);
  EXPECT_EQ(fs1.retransmits, 0u);  // nothing dropped, rto out of reach
  EXPECT_EQ(fs2.retransmits, 0u);
}

// ---- SMP: a one-way transfer settled by standalone acks ----

/// A one-way SMP transfer. The receiver's comm thread arms its own
/// delayed ack as it delivers, then, with nothing else queued, must park
/// toward that deadline rather than forever. The receiver sends no data
/// back, so only its standalone acks settle the transfer: had its comm
/// thread slept through the deadline, the data would wait for the 2 s
/// pinned RTO (rto_fires > 0).
TEST(FaultReliability, SmpOneWayTransferSettledByStandaloneAcks) {
  const util::Topology topo(2, 1, 2);  // 2 procs x 2 workers, SMP
  fault::FaultConfig f;
  f.dup_rate = 0.2;
  f.seed = 31;
  f.rto_ns = 2'000'000'000;
  rt::RuntimeConfig cfg = rt::RuntimeConfig::testing();
  cfg.fault = f;
  rt::Machine machine(topo, cfg);
  constexpr int kPerSender = 3000;
  std::vector<std::atomic<int>> seen(2 * kPerSender);
  const EndpointId ep =
      machine.register_endpoint([&](rt::Worker&, rt::Message&& msg) {
        seen[static_cast<std::size_t>(rt::decode_payload<int>(msg)[0])]++;
      });
  machine.run([&](rt::Worker& w) {
    if (topo.proc_of_worker(w.id()) != 0) return;
    const int rank = topo.local_rank(w.id());
    for (int i = 0; i < kPerSender; ++i) {
      rt::Message msg;
      msg.endpoint = ep;
      msg.dst_worker = topo.worker_at(1, rank);
      msg.src_worker = w.id();
      msg.payload = rt::encode_payload<int>(rank * kPerSender + i);
      w.send(std::move(msg));
    }
  });
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i].load(), 1) << "message " << i;
  }
  const core::FaultStats fs = machine.fault_stats();
  EXPECT_GE(fs.dup_drops, 1u);
  EXPECT_GE(fs.acks_sent, 1u);
  EXPECT_EQ(fs.rto_fires, 0u);
  EXPECT_EQ(fs.retransmits, 0u);
}

}  // namespace
