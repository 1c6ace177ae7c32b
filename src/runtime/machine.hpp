#pragma once
///
/// \file machine.hpp
/// \brief The simulated machine: topology + fabric + processes + QD.
///
/// Machine is the entry point of the runtime substrate. Usage (SPMD, like a
/// Charm++ mainchare broadcast):
///
///   Machine m(Topology(2, 2, 4), RuntimeConfig::testing());
///   EndpointId ep = m.register_endpoint([](Worker& w, Message&& msg) {...});
///   auto result = m.run([&](Worker& self) {
///     // runs on every worker; send messages, call self.progress(), ...
///   });
///   // result.wall_s covers start-barrier to global quiescence.
///
/// Termination is counting-based quiescence detection (Charm++ QD
/// analogue): every worker is quiet (its main returned, a round of its
/// idle hooks left its pending counters at zero, and it has dispatched
/// nothing since), every runtime message sent has been handled, every
/// registered pending counter (aggregation buffers, deferred work) reads
/// zero and the transport holds nothing — stable across a settle window. The thread that called run() samples
/// these counters only while every worker is quiet: otherwise it parks
/// with no timeout, and the worker whose change of state makes every
/// worker quiet unparks it (note_quiet). Pending counters follow one
/// contract (Worker::add_pending_counter), which also covers multi-hop
/// routed traffic (core/tram.hpp).

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "runtime/config.hpp"
#include "runtime/endpoint.hpp"
#include "runtime/process.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker.hpp"
#include "util/parker.hpp"
#include "util/topology.hpp"

namespace tram::core {
struct FaultStats;
}

namespace tram::rt {

class Machine {
 public:
  Machine(util::Topology topo, RuntimeConfig cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const util::Topology& topology() const noexcept { return topo_; }
  const RuntimeConfig& config() const noexcept { return cfg_; }
  /// The simulated interconnect the transport drives. It counts the
  /// traffic RunResult reports.
  net::Fabric& fabric() noexcept { return fabric_; }
  /// The transport carrying all cross-process traffic (see transport.hpp),
  /// with its reliability stage when cfg.fault is enabled.
  Transport& transport() noexcept { return transport_; }
  EndpointRegistry& endpoints() noexcept { return endpoints_; }

  /// Merged fault/reliability counters — all zero when fault injection
  /// is off.
  core::FaultStats fault_stats() const;

  /// Register a message handler on all processes. Only before run().
  EndpointId register_endpoint(Handler h);

  Process& process(ProcId p) { return *procs_[static_cast<std::size_t>(p)]; }
  Worker& worker(WorkerId w);

  struct RunResult {
    /// Start barrier to first observed quiescence, seconds.
    double wall_s = 0.0;
    /// Fabric-level (aggregated) messages and bytes: every copy that
    /// reached the fabric, so a dropped packet is absent and a duplicated
    /// one counts twice.
    std::uint64_t fabric_messages = 0;
    std::uint64_t fabric_bytes = 0;
    /// Subset of fabric_messages re-shipped by topological-routing
    /// intermediates (Message::hops > 0).
    std::uint64_t forwarded_messages = 0;
    /// Runtime-level messages (one per Message::send, local or remote).
    std::uint64_t runtime_messages = 0;
  };

  /// Execute main_fn on every worker, run message-driven scheduling to
  /// quiescence, join all threads, and report. Reusable: call repeatedly
  /// (counters and RNG streams reset between runs; endpoint registrations
  /// and idle hooks persist unless cleared).
  RunResult run(const std::function<void(Worker&)>& main_fn,
                std::uint64_t seed = 1);

  /// In-run barrier across all workers (control plane; call from main_fn).
  void barrier();

  /// --- hooks used by runtime internals ---
  void note_sent() noexcept {
    sent_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Release: pairs with total_handled()'s acquire, so a sample that
  /// reads handled before sent sees every send a counted handler made.
  void note_handled() noexcept {
    handled_.fetch_add(1, std::memory_order_release);
  }
  /// A worker's scheduler loop reports each change of its quiet state:
  /// quiet once a round of its idle hooks leaves its pending counters at
  /// zero, busy again when progress() dispatches a message. The change
  /// that makes every worker quiet unparks the quiescence detector.
  void note_quiet(bool quiet) noexcept {
    if (!quiet) {
      quiet_workers_.fetch_sub(1, std::memory_order_relaxed);
    } else if (quiet_workers_.fetch_add(1, std::memory_order_release) + 1 ==
               topo_.workers()) {
      qd_parker_.unpark();
    }
  }
  bool stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }
  /// Unpark process p's comm thread (no-op outside SMP mode). The
  /// transport calls it when a send from another process lands in p's
  /// ingress, a delayed copy included. Deadlines p's own pump arms (a
  /// retransmit probe, a delayed ack) need no wake: the pump re-reads
  /// next_due_ns(p) before it parks.
  void wake_comm(ProcId p) noexcept {
    if (cfg_.dedicated_comm) {
      procs_[static_cast<std::size_t>(p)]->comm_parker().unpark();
    }
  }
  /// Whether idle runtime threads spin before they yield (runtime/idle.hpp):
  /// in SMP mode, true when every runtime thread (workers plus comm
  /// threads) has a CPU of the affinity mask to itself; always true in
  /// non-SMP mode, whose workers never park. Fixed at construction.
  bool idle_spin() const noexcept { return idle_spin_; }

  /// Sum of pending counters over all workers.
  std::uint64_t total_pending() const;
  std::uint64_t total_sent() const noexcept {
    return sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_handled() const noexcept {
    return handled_.load(std::memory_order_acquire);
  }

  /// Remove all idle hooks and pending counters from every worker (between
  /// benchmark configurations that reuse the machine).
  void clear_worker_hooks();

 private:
  void quiescence_wait(std::uint64_t& t_end_ns);

  util::Topology topo_;
  RuntimeConfig cfg_;
  net::Fabric fabric_;
  Transport transport_;
  EndpointRegistry endpoints_;
  std::vector<std::unique_ptr<Process>> procs_;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> handled_{0};
  std::atomic<bool> stop_{false};
  /// Workers whose scheduler loop counts them quiet (note_quiet).
  std::atomic<int> quiet_workers_{0};
  /// Where the thread that called run() sleeps while a worker has work.
  util::Parker qd_parker_;
  bool running_ = false;
  bool idle_spin_ = true;

  std::unique_ptr<std::barrier<>> start_barrier_;  // workers + main thread
  std::unique_ptr<std::barrier<>> worker_barrier_; // workers only
};

}  // namespace tram::rt
