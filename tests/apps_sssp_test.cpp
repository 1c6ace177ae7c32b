#include <gtest/gtest.h>

#include <string>

#include "apps/sssp.hpp"
#include "graph/generator.hpp"
#include "graph/shortest_path.hpp"

namespace {

using namespace tram;

struct Param {
  core::Scheme scheme;
  std::uint32_t buffer;
  std::uint32_t delta;
  bool rmat;
  std::string label() const {
    return std::string(core::to_string(scheme)) + "_g" +
           std::to_string(buffer) + "_d" + std::to_string(delta) +
           (rmat ? "_rmat" : "_uniform");
  }
};

class SsspSchemes : public ::testing::TestWithParam<Param> {};

TEST_P(SsspSchemes, DistancesMatchDijkstra) {
  const Param param = GetParam();
  graph::GeneratorParams gp;
  gp.num_vertices = 4000;
  gp.avg_degree = 6.0;
  gp.seed = 3;
  const graph::Csr g =
      param.rmat ? graph::build_rmat(gp) : graph::build_uniform(gp);

  rt::Machine m(util::Topology(2, 2, 2), rt::RuntimeConfig::testing());
  apps::SsspParams p;
  p.graph = &g;
  p.source = 0;
  p.tram.scheme = param.scheme;
  p.tram.buffer_items = param.buffer;
  p.delta = param.delta;
  apps::SsspApp app(m, p);
  const auto res = app.run();
  EXPECT_TRUE(res.verified);
  EXPECT_GT(res.relaxations, 0u);
  EXPECT_LE(res.wasted_updates, res.received_updates);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SsspSchemes,
    ::testing::Values(Param{core::Scheme::None, 1, 16, false},
                      Param{core::Scheme::WW, 64, 16, false},
                      Param{core::Scheme::WPs, 64, 16, false},
                      Param{core::Scheme::WsP, 64, 16, false},
                      Param{core::Scheme::PP, 64, 16, false},
                      Param{core::Scheme::WPs, 64, 16, true},
                      Param{core::Scheme::PP, 256, 4, true},
                      Param{core::Scheme::WW, 1, 1000000, false},
                      Param{core::Scheme::WPs, 4096, 1, false},
                      // Routed schemes: same workload over the
                      // multi-hop message path.
                      Param{core::Scheme::Mesh2D, 64, 16, false},
                      Param{core::Scheme::Mesh3D, 64, 16, false},
                      Param{core::Scheme::Mesh2D, 64, 16, true}),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return param_info.param.label();
    });

/// Routed SSSP with the mesh priority path: under-threshold improvements
/// ride insert_priority, overtake bulk at every hop, and the result
/// still verifies against Dijkstra — across multi-hop non-SMP meshes
/// (the exactly-once sweep the routed irregular apps depend on).
TEST(Sssp, RoutedPrioritizedMatchesDijkstra) {
  graph::GeneratorParams gp;
  gp.num_vertices = 4000;
  gp.avg_degree = 6.0;
  gp.seed = 7;
  const graph::Csr g = graph::build_uniform(gp);
  auto rt_cfg = rt::RuntimeConfig::testing();
  rt_cfg.dedicated_comm = false;
  for (const core::Scheme s :
       {core::Scheme::Mesh2D, core::Scheme::Mesh3D}) {
    rt::Machine m(util::Topology(8, 1, 1), rt_cfg);
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
    EXPECT_GT(res.tram.routed_forwarded_items, 0u) << core::to_string(s);
    EXPECT_EQ(res.tram.items_inserted, res.tram.items_delivered)
        << core::to_string(s);
  }
}

TEST(Sssp, UnreachableVerticesStayInfinite) {
  // Build a graph with an isolated second component.
  std::vector<graph::Edge> edges;
  for (graph::Vertex v = 0; v + 1 < 100; ++v) {
    edges.push_back({v, v + 1, 2});
    edges.push_back({v + 1, v, 2});
  }
  // Vertices 100..199 form a separate ring.
  for (graph::Vertex v = 100; v < 199; ++v) {
    edges.push_back({v, v + 1, 1});
    edges.push_back({v + 1, v, 1});
  }
  const graph::Csr g(200, edges);
  rt::Machine m(util::Topology(2, 1, 2), rt::RuntimeConfig::testing());
  apps::SsspParams p;
  p.graph = &g;
  p.source = 0;
  p.tram.scheme = core::Scheme::WPs;
  p.tram.buffer_items = 16;
  apps::SsspApp app(m, p);
  const auto res = app.run();
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(app.distance(50), 100u);
  EXPECT_EQ(app.distance(150), UINT32_MAX);
}

TEST(Sssp, SourceInTheMiddlePartition) {
  graph::GeneratorParams gp;
  gp.num_vertices = 2000;
  gp.seed = 9;
  const graph::Csr g = graph::build_uniform(gp);
  rt::Machine m(util::Topology(2, 2, 2), rt::RuntimeConfig::testing());
  apps::SsspParams p;
  p.graph = &g;
  p.source = 1500;  // owned by a non-zero worker
  p.tram.scheme = core::Scheme::PP;
  p.tram.buffer_items = 64;
  apps::SsspApp app(m, p);
  EXPECT_TRUE(app.run().verified);
}

TEST(Sssp, RepeatedRunsConvergeIdentically) {
  graph::GeneratorParams gp;
  gp.num_vertices = 3000;
  gp.seed = 4;
  const graph::Csr g = graph::build_uniform(gp);
  rt::Machine m(util::Topology(2, 1, 2), rt::RuntimeConfig::testing());
  apps::SsspParams p;
  p.graph = &g;
  p.tram.scheme = core::Scheme::WW;
  p.tram.buffer_items = 128;
  apps::SsspApp app(m, p);
  // Final distances are schedule-independent (monotone relaxation):
  // repeated runs must verify every time even though message orders vary.
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(app.run(round).verified) << "round " << round;
  }
}

TEST(Sssp, RequiresGraph) {
  rt::Machine m(util::Topology(1, 1, 1), rt::RuntimeConfig::testing());
  apps::SsspParams p;
  p.graph = nullptr;
  EXPECT_THROW(apps::SsspApp(m, p), std::invalid_argument);
}

TEST(Sssp, WastedUpdatesRespondToLatency) {
  // With real delays and large buffers (no latency bound), stale updates
  // multiply; unaggregated sends keep waste lower. This is the causal link
  // the paper's figs 14-15 rest on.
  graph::GeneratorParams gp;
  gp.num_vertices = 20'000;
  gp.avg_degree = 8.0;
  gp.seed = 5;
  const graph::Csr g = graph::build_uniform(gp);
  rt::RuntimeConfig cfg;  // delta-like real costs
  auto waste_with = [&](core::Scheme s, std::uint32_t buffer) {
    rt::Machine m(util::Topology(2, 2, 2), cfg);
    apps::SsspParams p;
    p.graph = &g;
    p.tram.scheme = s;
    p.tram.buffer_items = buffer;
    p.delta = 8;
    apps::SsspApp app(m, p);
    const auto res = app.run();
    EXPECT_TRUE(res.verified);
    return res.wasted_pct;
  };
  const double none_waste = waste_with(core::Scheme::None, 1);
  const double ww_waste = waste_with(core::Scheme::WW, 4096);
  EXPECT_LE(none_waste, ww_waste + 5.0);  // allow noise, require no inversion
}

}  // namespace
