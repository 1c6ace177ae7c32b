#include "apps/sssp.hpp"

#include <algorithm>
#include <stdexcept>

namespace tram::apps {

namespace {

/// Checked before the app registers its domain and hooks on the machine.
const SsspParams& require_graph(const SsspParams& params) {
  if (params.graph == nullptr) {
    throw std::invalid_argument("SsspApp: graph is required");
  }
  return params;
}

}  // namespace

SsspApp::SsspApp(rt::Machine& machine, const SsspParams& params)
    : machine_(machine),
      params_(require_graph(params)),
      part_(params.graph->num_vertices(), machine.topology().workers()),
      domain_(machine, params.tram,
              [this](rt::Worker& w, const Update& u) {
                auto& st = state_[static_cast<std::size_t>(w.id())].value;
                ++st.received;
                const std::uint32_t cur =
                    st.dist[u.vertex - part_.begin(w.id())];
                if (u.dist >= cur) {
                  ++st.wasted;  // speculative work someone already beat
                  return;
                }
                apply_update(w, u.vertex, u.dist);
              }),
      state_(static_cast<std::size_t>(machine.topology().workers())) {
  for (int w = 0; w < machine.topology().workers(); ++w) {
    auto& st = state_[static_cast<std::size_t>(w)].value;
    st.dist.assign(part_.size(w), UINT32_MAX);
    rt::Worker& worker = machine.worker(w);
    worker.add_idle_hook([this](rt::Worker& wk) { on_idle(wk); });
    worker.add_pending_counter([&st] {
      return st.deferred_count.load(std::memory_order_acquire);
    });
  }
  if (params_.verify) {
    reference_ = graph::dijkstra(*params_.graph, params_.source);
  }
}

std::uint32_t SsspApp::distance(graph::Vertex v) const {
  const int owner = part_.owner(v);
  return state_[static_cast<std::size_t>(owner)].value.dist[v -
                                                            part_.begin(owner)];
}

void SsspApp::relax_edges(rt::Worker& w, WorkerState& st, graph::Vertex v,
                          std::uint32_t d) {
  ++st.relaxations;
  auto& agg = domain_.on(w);
  const bool prioritize = params_.prioritize_urgent;
  const auto nbrs = params_.graph->neighbors(v);
  const auto wts = params_.graph->weights(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const graph::Vertex nb = nbrs[i];
    const std::uint32_t nd = d + wts[i];
    const int owner = part_.owner(nb);
    if (owner == w.id()) {
      st.stack.push_back({nd, nb});
    } else if (prioritize && nd <= st.threshold) {
      // Under-threshold improvements are what peers are speculating
      // against right now: ship them expedited through small buffers
      // (on a mesh, the priority bit keeps them ahead at every hop).
      agg.insert_priority(static_cast<WorkerId>(owner), Update{nb, nd});
    } else {
      agg.insert(static_cast<WorkerId>(owner), Update{nb, nd});
    }
  }
}

void SsspApp::drain_stack(rt::Worker& w, WorkerState& st) {
  while (!st.stack.empty()) {
    const auto [d, v] = st.stack.back();
    st.stack.pop_back();
    std::uint32_t& cur = st.dist[v - part_.begin(w.id())];
    if (d >= cur) continue;  // superseded locally
    cur = d;
    if (d > st.threshold) {
      st.deferred.push({d, v});
      st.deferred_count.fetch_add(1, std::memory_order_release);
      continue;
    }
    relax_edges(w, st, v, d);
  }
}

void SsspApp::apply_update(rt::Worker& w, graph::Vertex v, std::uint32_t d) {
  auto& st = state_[static_cast<std::size_t>(w.id())].value;
  st.stack.push_back({d, v});
  drain_stack(w, st);
}

void SsspApp::on_idle(rt::Worker& w) {
  auto& st = state_[static_cast<std::size_t>(w.id())].value;
  if (st.deferred.empty()) return;
  // Advance the threshold far enough to release at least the smallest
  // deferred distance, then relax everything now under it.
  st.threshold =
      std::max(st.threshold + params_.delta, st.deferred.top().first);
  while (!st.deferred.empty() && st.deferred.top().first <= st.threshold) {
    const auto [d, v] = st.deferred.top();
    st.deferred.pop();
    if (d == st.dist[v - part_.begin(w.id())]) {
      relax_edges(w, st, v, d);
      drain_stack(w, st);
    }
    // else: lazily discarded — a better distance already propagated.
    //
    // Decrement only after the entry is fully processed: any messages or
    // re-deferrals it produces are already visible to quiescence
    // detection, so there is no instant at which this work is invisible.
    st.deferred_count.fetch_sub(1, std::memory_order_release);
  }
}

SsspResult SsspApp::run(std::uint64_t seed) {
  for (int w = 0; w < machine_.topology().workers(); ++w) {
    auto& st = state_[static_cast<std::size_t>(w)].value;
    std::fill(st.dist.begin(), st.dist.end(), UINT32_MAX);
    while (!st.deferred.empty()) st.deferred.pop();
    st.deferred_count.store(0, std::memory_order_relaxed);
    st.stack.clear();
    st.threshold = params_.delta;
    st.wasted = st.received = st.relaxations = 0;
  }
  domain_.reset_stats();

  const auto result = machine_.run(
      [this](rt::Worker& w) {
        if (part_.owner(params_.source) == w.id()) {
          apply_update(w, params_.source, 0);
          domain_.on(w).flush_all();
        }
        // Everything else is message-driven; the scheduler loop, idle
        // hooks, and QD do the rest.
      },
      seed);

  SsspResult res;
  res.run = result;
  res.tram = domain_.aggregate_stats();
  res.max_reserved_buffers = domain_.max_reserved_buffers();
  for (const auto& s : state_) {
    res.wasted_updates += s.value.wasted;
    res.received_updates += s.value.received;
    res.relaxations += s.value.relaxations;
  }
  res.wasted_pct = res.received_updates
                       ? 100.0 * static_cast<double>(res.wasted_updates) /
                             static_cast<double>(res.received_updates)
                       : 0.0;
  if (params_.verify) {
    res.verified = true;
    for (graph::Vertex v = 0; v < params_.graph->num_vertices(); ++v) {
      const std::uint64_t expect = reference_[v];
      const std::uint32_t got = distance(v);
      const bool ok = expect == graph::kUnreachable
                          ? got == UINT32_MAX
                          : got == expect;
      if (!ok) {
        res.verified = false;
        break;
      }
    }
  }
  return res;
}

}  // namespace tram::apps
