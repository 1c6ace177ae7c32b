#pragma once
///
/// \file sssp.hpp
/// \brief Speculative single-source shortest path (paper Figs. 14-17).
///
/// Vertices are block-distributed, one chare per worker PE. Workers relax
/// edges speculatively as distance updates arrive: an update that improves
/// a vertex's distance propagates immediately when the new distance is
/// under the current threshold, and is deferred to a local priority queue
/// otherwise (the paper's threshold "helps prioritize updates with smaller
/// distances in order to minimize wasted updates"). Idle workers advance
/// their threshold and release deferred work; counting quiescence ends the
/// run when every queue and buffer is empty.
///
/// The benchmark is latency sensitive: the longer an improvement sits in an
/// aggregation buffer, the more speculative work peers perform against its
/// stale predecessor — so lower-latency schemes show fewer wasted updates
/// (PP < WPs < WW in the paper).
///
/// The app holds one route::Domain, so Scheme::Mesh2D/Mesh3D run the same
/// threshold machinery over the multi-hop message path. With
/// prioritize_urgent, under-threshold improvements ride the routed
/// priority slots and overtake bulk at every hop
/// (bench/fig_routed_sssp.cpp sweeps direct vs 2-D vs 3-D side by side).

#include <cstdint>
#include <queue>
#include <vector>

#include "graph/csr.hpp"
#include "graph/shortest_path.hpp"
#include "route/domain.hpp"
#include "runtime/machine.hpp"
#include "util/spinlock.hpp"

namespace tram::apps {

struct SsspParams {
  const graph::Csr* graph = nullptr;  // shared read-only across workers
  graph::Vertex source = 0;
  core::TramConfig tram;
  /// Threshold advance step (distance units) when an idle worker releases
  /// deferred updates.
  std::uint32_t delta = 64;
  std::uint32_t progress_interval = 32;
  /// Verify final distances against sequential Dijkstra.
  bool verify = true;
  /// Route updates at or under the threshold through TramLib's priority
  /// path (tram.priority_buffer_items must be nonzero): the paper's
  /// future-work prioritization, expected to cut wasted updates further.
  bool prioritize_urgent = false;
};

struct SsspResult {
  rt::Machine::RunResult run;
  core::WorkerTramStats tram;
  /// Remote updates received that did not improve a distance (the paper's
  /// "wasted updates").
  std::uint64_t wasted_updates = 0;
  /// All remote updates received.
  std::uint64_t received_updates = 0;
  /// wasted / received, in percent.
  double wasted_pct = 0.0;
  /// Edge relaxations performed (local + triggered by remote updates).
  std::uint64_t relaxations = 0;
  /// Largest count of live source-side buffers on any one worker — O(N)
  /// for the direct schemes, O(d * N^(1/d)) for the routed ones.
  std::uint64_t max_reserved_buffers = 0;
  bool verified = false;
};

class SsspApp {
 public:
  SsspApp(rt::Machine& machine, const SsspParams& params);
  SsspResult run(std::uint64_t seed = 1);

  /// Final distance of a vertex after the last run (UINT32_MAX if
  /// unreachable).
  std::uint32_t distance(graph::Vertex v) const;

 private:
  struct Update {
    graph::Vertex vertex;
    std::uint32_t dist;
  };
  using HeapItem = std::pair<std::uint32_t, graph::Vertex>;  // (dist, v)

  struct WorkerState {
    std::vector<std::uint32_t> dist;
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>>
        deferred;
    std::atomic<std::uint64_t> deferred_count{0};
    std::vector<HeapItem> stack;  // local propagation worklist
    std::uint32_t threshold = 0;
    std::uint64_t wasted = 0;
    std::uint64_t received = 0;
    std::uint64_t relaxations = 0;
  };

  void apply_update(rt::Worker& w, graph::Vertex v, std::uint32_t d);
  void relax_edges(rt::Worker& w, WorkerState& st, graph::Vertex v,
                   std::uint32_t d);
  void drain_stack(rt::Worker& w, WorkerState& st);
  void on_idle(rt::Worker& w);

  rt::Machine& machine_;
  SsspParams params_;
  graph::BlockPartition part_;
  route::Domain<Update> domain_;
  std::vector<util::Padded<WorkerState>> state_;
  std::vector<std::uint64_t> reference_;  // Dijkstra distances (verify)
};

}  // namespace tram::apps
