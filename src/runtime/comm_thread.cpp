#include "runtime/comm_thread.hpp"

#include "runtime/idle.hpp"
#include "runtime/machine.hpp"
#include "runtime/process.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker.hpp"
#include "trace/trace.hpp"
#include "util/parker.hpp"
#include "util/timebase.hpp"

namespace tram::rt {

CommThread::CommThread(Machine& machine, Process& proc)
    : machine_(machine), proc_(proc), transport_(machine.transport()) {}

std::size_t CommThread::pump_egress() {
  const int nworkers = proc_.worker_count();
  std::size_t forwarded = 0;
  for (LocalWorkerId r = 0; r < nworkers; ++r) {
    auto& ring = proc_.egress(r);
    // Bounded batch per worker per iteration keeps one chatty worker from
    // starving its siblings.
    for (std::uint32_t i = 0; i < kProgressBatch; ++i) {
      auto m = ring.try_pop();
      if (!m) break;
      transport_.send(proc_.id(), std::move(*m));
      ++forwarded;
    }
  }
  return forwarded;
}

std::size_t CommThread::pump_ingress() { return transport_.poll(proc_); }

void CommThread::run() {
  util::tighten_timer_slack();
  trace::set_thread_name("comm " + std::to_string(proc_.id()));
  util::Parker& parker = proc_.comm_parker();
  const bool spin = machine_.idle_spin();
  std::uint32_t idle_round = 0;
  for (;;) {
    const std::uint64_t t0 = trace::maybe_now();
    std::size_t work = pump_egress();
    work += pump_ingress();
    if (work > 0) {
      trace::complete(trace::Cat::kRuntime, trace::kCommPump, t0, work);
      idle_round = 0;
      continue;
    }
    const std::uint64_t due = transport_.next_due_ns(proc_.id());
    if (machine_.stopping() && due == 0) return;
    // Walk the idle ladder; only its park step reads the due time. No
    // park needs a shorter cap: a worker's egress push, a new arrival or
    // an earlier deadline unparks this thread.
    const CommIdleStep step = comm_idle_step(
        idle_round++, spin, due == 0 ? 0 : util::now_ns(), due);
    if (step.action == IdleAction::kSpin && step.ns > 0) {
      util::spin_for_ns(step.ns);
    } else {
      idle_wait(step.action, parker, step.ns);
    }
  }
}

}  // namespace tram::rt
