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
/// analogue): all application mains returned, every runtime message sent
/// has been handled, and every registered pending counter (aggregation
/// buffers, deferred work) reads zero — stable across a settle window.
/// Multi-hop routed traffic (core/tram.hpp) is covered by the same counting:
/// entries re-aggregated at an intermediate raise that worker's pending
/// counter before the inbound message counts as handled, so the machine
/// can never look quiescent while forwarded entries sit in a
/// next-dimension buffer or a re-shipped message is in flight.

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
#include "runtime/worker.hpp"
#include "util/topology.hpp"

namespace tram::core {
struct FaultStats;
}
namespace tram::fault {
class FaultyTransport;
class ReliableTransport;
}

namespace tram::rt {

class DeliveryInterceptor;
class Transport;

class Machine {
 public:
  Machine(util::Topology topo, RuntimeConfig cfg);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const util::Topology& topology() const noexcept { return topo_; }
  const RuntimeConfig& config() const noexcept { return cfg_; }
  /// The simulated interconnect the base transport drives.
  net::Fabric& fabric() noexcept { return fabric_; }
  /// The transport carrying all cross-process traffic (see transport.hpp).
  /// With cfg.fault enabled this is the reliability decorator chain;
  /// otherwise exactly the base transport.
  Transport& transport() noexcept { return *transport_; }
  EndpointRegistry& endpoints() noexcept { return endpoints_; }

  /// The fault-injection / reliability layers, or nullptr when
  /// cfg.fault is all-zero (the undecorated fast path).
  fault::FaultyTransport* fault_layer() const noexcept { return faulty_; }
  fault::ReliableTransport* reliability() const noexcept {
    return reliable_;
  }
  /// Hook the transports' delivery tail runs inbound messages through
  /// (see DeliveryInterceptor); nullptr when fault injection is off.
  DeliveryInterceptor* delivery_interceptor() const noexcept {
    return interceptor_;
  }
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
    /// Fabric-level (aggregated) messages and bytes.
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
  void note_handled() noexcept {
    handled_.fetch_add(1, std::memory_order_relaxed);
  }
  bool stopping() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }
  /// Unpark process p's comm thread (no-op outside SMP mode). The base
  /// transport calls it when a send from another process lands in p's
  /// ingress. Deadlines p's own pump arms (a retransmit probe, a delayed
  /// ack, a held packet) need no wake: the pump re-reads next_due_ns(p)
  /// before it parks.
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
    return handled_.load(std::memory_order_relaxed);
  }

  /// Remove all idle hooks and pending counters from every worker (between
  /// benchmark configurations that reuse the machine).
  void clear_worker_hooks();

 private:
  void quiescence_wait(std::uint64_t& t_end_ns);

  util::Topology topo_;
  RuntimeConfig cfg_;
  net::Fabric fabric_;
  std::unique_ptr<Transport> transport_;
  /// Non-owning views into the decorator chain held by transport_
  /// (nullptr when fault injection is off).
  fault::FaultyTransport* faulty_ = nullptr;
  fault::ReliableTransport* reliable_ = nullptr;
  DeliveryInterceptor* interceptor_ = nullptr;
  EndpointRegistry endpoints_;
  std::vector<std::unique_ptr<Process>> procs_;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> handled_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> mains_done_{0};
  bool running_ = false;
  bool idle_spin_ = true;

  std::unique_ptr<std::barrier<>> start_barrier_;  // workers + main thread
  std::unique_ptr<std::barrier<>> worker_barrier_; // workers only
};

}  // namespace tram::rt
