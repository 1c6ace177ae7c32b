#pragma once
///
/// \file worker.hpp
/// \brief A worker PE: message-driven scheduler bound to one thread.
///
/// Equivalent of a Charm++ PE: an OS thread with an inbox of messages,
/// dispatching each to its endpoint handler. Two inboxes implement
/// expedited delivery (expedited messages are handled first — the paper
/// prioritizes TramLib messages this way).
///
/// Workers expose two integration points used by TramLib and applications:
///  - idle hooks: run when the inbox is empty (flush-on-idle lives here);
///  - pending counters: report application-level buffered work so that
///    quiescence detection does not fire while items sit in aggregation
///    buffers or deferred queues.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/message.hpp"
#include "util/mpsc_queue.hpp"
#include "util/parker.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace tram::rt {

class Machine;
class Process;

/// Max messages a worker handles per progress() call before returning to
/// the application (bounds latency of interleaved compute/progress loops),
/// and max messages a comm thread forwards from one worker's egress ring
/// per pump (one chatty worker cannot starve its siblings).
inline constexpr std::uint32_t kProgressBatch = 64;

class Worker {
 public:
  Worker(Machine& machine, Process& proc, WorkerId id, LocalWorkerId rank);

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  WorkerId id() const noexcept { return id_; }
  LocalWorkerId local_rank() const noexcept { return rank_; }
  Process& process() noexcept { return proc_; }
  Machine& machine() noexcept { return machine_; }

  /// Send a message. Same-process destinations are delivered directly into
  /// the target worker's inbox (shared memory); remote destinations go via
  /// the comm thread and fabric. dst_worker must be valid unless the
  /// endpoint is process-addressed (send_to_proc below).
  void send(Message&& m);

  /// Send a message addressed to a process rather than a specific worker;
  /// the receiving side picks a local worker (round-robin). Used by the
  /// WPs/WsP/PP schemes whose buffers target processes.
  void send_to_proc(ProcId dst, Message&& m);

  /// Deliver a message into this worker's inbox (called by peers within the
  /// process and by the comm thread) and unpark the worker. Thread-safe.
  void enqueue(Message&& m);

  /// Handle up to kProgressBatch pending messages. Returns the
  /// number handled. Call from compute loops that also generate messages so
  /// that receives interleave with sends (message-driven execution).
  std::size_t progress();

  /// Scheduler loop: handle messages until the machine signals stop,
  /// walking the idle ladder (runtime/idle.hpp) and running idle hooks
  /// when the inbox goes empty. Called by the runtime after the
  /// application main returns.
  void scheduler_loop();

  /// Register a callback run while this worker finds its inbox empty: on
  /// the first idle round and every 8th one while spinning, then on every
  /// yield and park round (see runtime/idle.hpp). An idle SMP worker parks
  /// for at most kIdleNapNs, and less when next_arrival_ns() lies within
  /// a nap plus kWakeLeadNs, so it runs its hooks at least once per nap; a
  /// message a hook sends to its own worker unparks it at once. TramLib
  /// registers flush-on-idle here, SsspApp its delta-stepping threshold
  /// advance.
  void add_idle_hook(std::function<void(Worker&)> hook) {
    idle_hooks_.push_back(std::move(hook));
  }

  /// Register a counter of application-level pending work (buffered items,
  /// deferred updates). The machine is quiescent only when all pending
  /// counters are zero.
  void add_pending_counter(std::function<std::uint64_t()> counter) {
    pending_counters_.push_back(std::move(counter));
  }

  std::uint64_t pending() const {
    std::uint64_t total = 0;
    for (const auto& c : pending_counters_) total += c();
    return total;
  }

  /// Deterministic per-worker RNG stream (re-seeded by Machine::run).
  util::Xoshiro256& rng() noexcept { return rng_; }
  void reseed(std::uint64_t seed) {
    rng_ = util::Xoshiro256::for_stream(seed, static_cast<std::uint64_t>(id_));
  }

  /// Modeled arrival (util::now_ns() clock) of the packet heading this
  /// process's reorder heap when that packet is for this worker, else 0.
  /// Written by the process's pump thread after each
  /// ModeledFabricTransport::poll; an idle SMP worker parks toward it
  /// (rt::park_budget_ns). Only a hint, so relaxed on both sides.
  std::uint64_t next_arrival_ns() const noexcept {
    return next_arrival_ns_.load(std::memory_order_relaxed);
  }
  void set_next_arrival_ns(std::uint64_t arrival_ns) noexcept {
    next_arrival_ns_.store(arrival_ns, std::memory_order_relaxed);
  }

  /// Remove all idle hooks / pending counters (between benchmark configs).
  void clear_hooks() {
    idle_hooks_.clear();
    pending_counters_.clear();
  }

 private:
  friend class Machine;
  friend class CommThread;

  /// Dispatch one message to its handler and account it.
  void dispatch(Message&& m);
  /// Run every idle hook once, in registration order.
  void run_idle_hooks();
  /// Non-SMP mode: pump this process's communication from the worker.
  void pump_comm_inline();
  /// SMP mode: hand a remote message to the comm thread and unpark it.
  void push_egress(Message&& m);

  Machine& machine_;
  Process& proc_;
  const WorkerId id_;
  const LocalWorkerId rank_;

  util::MpscQueue<Message> inbox_;
  util::MpscQueue<Message> expedited_inbox_;
  /// Where the idle worker sleeps; enqueue() and Machine::run's stop
  /// unpark it. Its own cache line: every producer writes it.
  alignas(64) util::Parker parker_;
  /// See next_arrival_ns(). On the parker's line, which the pump thread
  /// writes anyway when it delivers to this worker.
  std::atomic<std::uint64_t> next_arrival_ns_{0};
  /// Debug guard: id of the thread driving this worker (set by Machine::run)
  /// so send/progress can assert they run on the owning thread.
  std::atomic<std::size_t> owner_thread_{0};

  std::vector<std::function<void(Worker&)>> idle_hooks_;
  std::vector<std::function<std::uint64_t()>> pending_counters_;
  util::Xoshiro256 rng_;
};

}  // namespace tram::rt
