#include "runtime/worker.hpp"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

#include "runtime/idle.hpp"
#include "runtime/machine.hpp"
#include "runtime/process.hpp"
#include "runtime/transport.hpp"
#include "trace/trace.hpp"
#include "util/spinlock.hpp"
#include "util/timebase.hpp"

namespace tram::rt {

Worker::Worker(Machine& machine, Process& proc, WorkerId id,
               LocalWorkerId rank)
    : machine_(machine), proc_(proc), id_(id), rank_(rank) {}

void Worker::enqueue(Message&& m) {
  if (m.expedited) {
    expedited_inbox_.push(std::move(m));
  } else {
    inbox_.push(std::move(m));
  }
  parker_.unpark();
}

namespace {
std::size_t this_thread_id() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}
}  // namespace

void Worker::send(Message&& m) {
  if (const std::size_t owner = owner_thread_.load(std::memory_order_relaxed);
      owner != 0 && owner != this_thread_id()) {
    std::fprintf(stderr, "Worker::send on foreign thread (worker %d)\n", id_);
    std::abort();
  }
  machine_.note_sent();
  const auto& topo = machine_.topology();
  const ProcId dst_proc = topo.proc_of_worker(m.dst_worker);
  if (dst_proc == proc_.id()) {
    // Shared-memory local delivery: straight into the peer's inbox.
    proc_.worker(topo.local_rank(m.dst_worker)).enqueue(std::move(m));
    return;
  }
  if (machine_.config().dedicated_comm) {
    push_egress(std::move(m));
  } else {
    // Non-SMP: this worker does its own communication, paying the
    // per-message processing cost itself.
    machine_.transport().send(proc_.id(), std::move(m));
  }
}

void Worker::send_to_proc(ProcId dst, Message&& m) {
  if (dst == proc_.id()) {
    // Process-addressed local message: pick a local worker directly.
    m.dst_worker = proc_.pick_delivery_worker();
    send(std::move(m));
    return;
  }
  m.dst_worker = kInvalidWorker;
  m.dst_proc_hint = dst;
  machine_.note_sent();
  if (machine_.config().dedicated_comm) {
    push_egress(std::move(m));
  } else {
    machine_.transport().send(proc_.id(), std::move(m));
  }
}

void Worker::push_egress(Message&& m) {
  // Spin on backpressure: the ring drains at the comm thread's processing
  // rate, and this wait is the SMP serialization the paper measures. A
  // full ring means the comm thread is awake: every push unparks it.
  auto& ring = proc_.egress(rank_);
  while (!ring.try_push(std::move(m))) {
    util::cpu_relax();
  }
  proc_.comm_parker().unpark();
}

void Worker::dispatch(Message&& m) {
  const EndpointId ep = m.endpoint;
  machine_.endpoints().get(ep)(*this, std::move(m));
  machine_.note_handled();
}

std::size_t Worker::progress() {
  if (const std::size_t owner = owner_thread_.load(std::memory_order_relaxed);
      owner != 0 && owner != this_thread_id()) {
    std::fprintf(stderr, "Worker::progress on foreign thread (worker %d)\n",
                 id_);
    std::abort();
  }
  // Span timestamp only when a batch is plausibly non-empty: idle workers
  // spin through here, and an unconditional clock read per spin is the
  // kind of traced-run overhead the fig_routed_histogram A/B row bounds.
  std::uint64_t t0 = 0;
  if (trace::enabled() &&
      (!expedited_inbox_.empty_approx() || !inbox_.empty_approx())) {
    t0 = trace::maybe_now();
  }
  std::size_t n = 0;
  // Expedited messages first (Charm++ expedited entry methods).
  while (n < kProgressBatch) {
    auto m = expedited_inbox_.try_pop();
    if (!m) break;
    dispatch(std::move(*m));
    ++n;
  }
  while (n < kProgressBatch) {
    auto m = inbox_.try_pop();
    if (!m) break;
    dispatch(std::move(*m));
    ++n;
  }
  // One span per non-empty batch: the worker's busy time is the sum of
  // these, everything between them is idle/overhead.
  if (n > 0) trace::complete(trace::Cat::kRuntime, trace::kWorkerBusy, t0, n);
  return n;
}

void Worker::run_idle_hooks() {
  for (auto& hook : idle_hooks_) hook(*this);
}

void Worker::pump_comm_inline() {
  // Non-SMP: single worker per process pumps its own communication.
  machine_.transport().poll(proc_);
}

void Worker::scheduler_loop() {
  const bool smp = machine_.config().dedicated_comm;
  const bool spin = machine_.idle_spin();
  std::uint32_t idle_round = 0;
  // Whether this worker counts toward Machine::note_quiet's quiet count.
  bool quiet = false;
  while (!machine_.stopping()) {
    if (!smp) pump_comm_inline();
    const std::size_t n = progress();
    if (n > 0) {
      idle_round = 0;
      if (quiet) {
        quiet = false;
        machine_.note_quiet(false);
      }
      continue;
    }
    // Idle: let the application flush / advance deferred work, then back
    // off along the idle ladder so oversubscribed runs do not thrash.
    const IdleStep step = idle_step(idle_round++, /*may_park=*/smp, spin);
    if (step.run_hooks) {
      run_idle_hooks();
      if (quiet != (pending() == 0)) {
        quiet = !quiet;
        machine_.note_quiet(quiet);
      }
    }
    IdleAction action = step.action;
    std::uint64_t nap = kIdleNapNs;
    if (action == IdleAction::kPark) {
      // Wake kWakeLeadNs before the next packet the pump holds for this
      // worker, and stay awake when it lands sooner than a park is worth.
      nap = park_budget_ns(util::now_ns(), next_arrival_ns(), kIdleNapNs);
      if (nap == 0) action = spin ? IdleAction::kSpin : IdleAction::kYield;
    }
    idle_wait(action, parker_, nap, /*hint_cut=*/nap < kIdleNapNs);
  }
}

}  // namespace tram::rt
