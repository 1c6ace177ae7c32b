#pragma once
///
/// \file topology.hpp
/// \brief Machine shape: nodes x processes-per-node x workers-per-process.
///
/// Mirrors the paper's deployment vocabulary. "non-SMP mode" is simply
/// workers_per_proc == 1 (one process per core, no comm sharing); "SMP mode"
/// has workers_per_proc > 1 plus one dedicated comm thread per process.
/// All id conversions live here so every module agrees on the numbering:
/// processes are node-major, workers are process-major.

#include <string>

#include "util/types.hpp"

namespace tram::util {

class Topology {
 public:
  Topology() = default;

  /// \param nodes           physical nodes in the machine
  /// \param procs_per_node  processes on each node (>= 1)
  /// \param workers_per_proc worker PEs per process (>= 1)
  Topology(int nodes, int procs_per_node, int workers_per_proc);

  int nodes() const noexcept { return nodes_; }
  int procs_per_node() const noexcept { return procs_per_node_; }
  int workers_per_proc() const noexcept { return workers_per_proc_; }

  /// Total process count N in the paper's notation.
  int procs() const noexcept { return nodes_ * procs_per_node_; }
  /// Total worker count (N * t in the paper's notation).
  int workers() const noexcept { return procs() * workers_per_proc_; }
  /// Workers on one node.
  int workers_per_node() const noexcept {
    return procs_per_node_ * workers_per_proc_;
  }

  NodeId node_of_proc(ProcId p) const noexcept {
    return p / procs_per_node_;
  }
  ProcId proc_of_worker(WorkerId w) const noexcept {
    return w / workers_per_proc_;
  }
  NodeId node_of_worker(WorkerId w) const noexcept {
    return node_of_proc(proc_of_worker(w));
  }
  LocalWorkerId local_rank(WorkerId w) const noexcept {
    return w % workers_per_proc_;
  }
  WorkerId first_worker_of(ProcId p) const noexcept {
    return p * workers_per_proc_;
  }
  WorkerId worker_at(ProcId p, LocalWorkerId r) const noexcept {
    return p * workers_per_proc_ + r;
  }
  ProcId first_proc_of(NodeId n) const noexcept {
    return n * procs_per_node_;
  }

  /// True when the two workers share a process (shared memory reachable).
  bool same_proc(WorkerId a, WorkerId b) const noexcept {
    return proc_of_worker(a) == proc_of_worker(b);
  }
  /// True when the two workers share a physical node.
  bool same_node(WorkerId a, WorkerId b) const noexcept {
    return node_of_worker(a) == node_of_worker(b);
  }

  /// "4n x 2p x 8w" — used in bench table headers.
  std::string to_string() const;

  bool operator==(const Topology&) const = default;

 private:
  int nodes_ = 1;
  int procs_per_node_ = 1;
  int workers_per_proc_ = 1;
};

/// CPUs this process may run on: the count in its affinity mask
/// (sched_getaffinity), or std::thread::hardware_concurrency() off Linux
/// or when the mask cannot be read. At least 1.
int available_cpus() noexcept;

}  // namespace tram::util
