/// \file graph_bfs.cpp
/// \brief Level-synchronous BFS over TramLib — the fine-grained graph
/// workload the paper's introduction motivates.
///
/// Vertices are block-partitioned over worker PEs. Each BFS level, every
/// worker scans its frontier and fires one tiny item per cross-partition
/// edge; TramLib aggregates them. The example prints per-level frontier
/// sizes and the end-to-end message statistics, and verifies the resulting
/// parent tree covers exactly the component of the source.
///
///   ./graph_bfs --vertices 200000 --degree 8 --scheme WPs

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <vector>

#include "core/tram.hpp"
#include "graph/generator.hpp"
#include "runtime/machine.hpp"
#include "util/cli.hpp"

using namespace tram;

namespace {

struct VisitItem {
  graph::Vertex vertex;
  graph::Vertex parent;
};

struct BfsWorkerState {
  std::vector<std::uint32_t> level;        // per local vertex; ~0u = unseen
  std::vector<graph::Vertex> parent;       // discovered parent
  std::vector<graph::Vertex> frontier;     // local vertices found this level
  std::uint64_t discovered = 0;
};

}  // namespace

int main(int argc, char** argv) {
  std::int64_t vertices = 200'000;
  double degree = 8.0;
  std::string scheme_name = "WPs";
  std::int64_t buffer = 1024;
  std::int64_t seed = 42;
  bool rmat = false;
  util::Cli cli("graph_bfs: aggregated breadth-first search");
  cli.add_int("vertices", &vertices, "number of vertices");
  cli.add_double("degree", &degree, "average degree");
  cli.add_string("scheme", &scheme_name, "None|WW|WPs|WsP|PP");
  cli.add_int("buffer", &buffer, "aggregation buffer size");
  cli.add_int("seed", &seed, "graph seed");
  cli.add_flag("rmat", &rmat, "use an RMAT (power-law) graph");
  if (!cli.parse(argc, argv)) return 2;
  const auto scheme = core::parse_scheme(scheme_name);
  if (!scheme) {
    std::fprintf(stderr, "unknown scheme '%s'\n", scheme_name.c_str());
    return 1;
  }

  graph::GeneratorParams gp;
  gp.num_vertices = static_cast<graph::Vertex>(vertices);
  gp.avg_degree = degree;
  gp.seed = static_cast<std::uint64_t>(seed);
  const graph::Csr g = rmat ? graph::build_rmat(gp) : graph::build_uniform(gp);
  std::printf("graph: %u vertices, %zu edges (%s)\n", g.num_vertices(),
              g.num_edges(), rmat ? "rmat" : "uniform");

  rt::Machine machine(util::Topology(2, 2, 4), rt::RuntimeConfig{});
  const int W = machine.topology().workers();
  graph::BlockPartition part(g.num_vertices(), W);

  std::vector<util::Padded<BfsWorkerState>> state(W);
  for (int w = 0; w < W; ++w) {
    state[w].value.level.assign(part.size(w), ~0u);
    state[w].value.parent.assign(part.size(w), 0);
  }
  std::uint32_t current_level = 0;  // shared, advanced between barriers

  core::TramConfig cfg;
  cfg.scheme = *scheme;
  cfg.buffer_items = static_cast<std::uint32_t>(buffer);
  core::TramDomain<VisitItem> tram(
      machine, cfg, [&](rt::Worker& w, const VisitItem& item) {
        auto& st = state[w.id()].value;
        const auto local = item.vertex - part.begin(w.id());
        if (st.level[local] != ~0u) return;  // already discovered
        st.level[local] = current_level + 1;
        st.parent[local] = item.parent;
        st.frontier.push_back(item.vertex);
        ++st.discovered;
      });

  const graph::Vertex source = 0;
  std::atomic<std::uint64_t> next_frontier_total{0};
  std::atomic<bool> bfs_done{false};
  const auto result = machine.run([&](rt::Worker& self) {
    auto& st = state[self.id()].value;
    auto& agg = tram.on(self);
    // Seed the root.
    if (part.owner(source) == self.id()) {
      st.level[source - part.begin(self.id())] = 0;
      st.frontier.push_back(source);
      ++st.discovered;
    }
    // Level-synchronous sweep: expand, flush, drain, barrier, repeat.
    for (;;) {
      std::vector<graph::Vertex> frontier;
      frontier.swap(st.frontier);
      for (const graph::Vertex v : frontier) {
        for (const graph::Vertex nb : g.neighbors(v)) {
          const int owner = part.owner(nb);
          if (owner == self.id()) {
            const auto local = nb - part.begin(self.id());
            if (st.level[local] == ~0u) {
              st.level[local] = current_level + 1;
              st.parent[local] = v;
              st.frontier.push_back(nb);
              ++st.discovered;
            }
          } else {
            agg.insert(static_cast<WorkerId>(owner), VisitItem{nb, v});
          }
        }
        self.progress();
      }
      agg.flush_all();
      // Drain in-flight visits. After the barrier every send of this level
      // has been issued, and BFS deliveries send nothing themselves, so
      // "every runtime message handled" is an exact level-complete test.
      self.machine().barrier();
      while (self.machine().total_sent() != self.machine().total_handled()) {
        self.progress();
      }
      self.progress();
      self.machine().barrier();

      // Level bookkeeping, re-synced across workers.
      next_frontier_total += st.frontier.size();
      self.machine().barrier();
      if (self.id() == 0) {
        std::printf("level %u: frontier %llu\n", current_level + 1,
                    static_cast<unsigned long long>(
                        next_frontier_total.load()));
        bfs_done.store(next_frontier_total.load() == 0);
        next_frontier_total = 0;
        ++current_level;
      }
      self.machine().barrier();
      if (bfs_done.load()) break;
    }
  });

  // Verification: discovered set == component of source (sequential BFS).
  std::vector<char> reachable(g.num_vertices(), 0);
  std::vector<graph::Vertex> queue{source};
  reachable[source] = 1;
  std::size_t expected = 1;
  while (!queue.empty()) {
    const graph::Vertex v = queue.back();
    queue.pop_back();
    for (const graph::Vertex nb : g.neighbors(v)) {
      if (!reachable[nb]) {
        reachable[nb] = 1;
        ++expected;
        queue.push_back(nb);
      }
    }
  }
  std::uint64_t discovered = 0;
  for (const auto& s : state) discovered += s.value.discovered;

  const auto stats = tram.aggregate_stats();
  std::printf("discovered %llu vertices (component size %zu) %s\n",
              static_cast<unsigned long long>(discovered), expected,
              discovered == expected ? "OK" : "MISMATCH");
  std::printf("tram messages: %llu (%.1f items/msg), wall %.3f ms\n",
              static_cast<unsigned long long>(stats.msgs_shipped),
              stats.occupancy_at_ship.mean(), result.wall_s * 1e3);
  return discovered == expected ? 0 : 1;
}
