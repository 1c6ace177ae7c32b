#include "runtime/comm_thread.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "runtime/idle.hpp"
#include "runtime/machine.hpp"
#include "runtime/process.hpp"
#include "runtime/transport.hpp"
#include "runtime/worker.hpp"
#include "trace/trace.hpp"
#include "util/timebase.hpp"

namespace tram::rt {

CommThread::CommThread(Machine& machine, Process& proc)
    : machine_(machine), proc_(proc), transport_(machine.transport()) {}

std::size_t CommThread::pump_egress() {
  const auto& cfg = machine_.config();
  const int nworkers = proc_.worker_count();
  std::size_t forwarded = 0;
  for (LocalWorkerId r = 0; r < nworkers; ++r) {
    auto& ring = proc_.egress(r);
    // Bounded batch per worker per iteration keeps one chatty worker from
    // starving its siblings.
    for (std::uint32_t i = 0; i < cfg.progress_batch; ++i) {
      auto m = ring.try_pop();
      if (!m) break;
      transport_.send(proc_.id(), std::move(*m));
      ++sent_;
      ++forwarded;
    }
  }
  return forwarded;
}

std::size_t CommThread::pump_ingress() {
  const std::size_t delivered = transport_.poll(proc_);
  delivered_ += delivered;
  return delivered;
}

void CommThread::run() {
  util::tighten_timer_slack();
  trace::set_thread_name("comm " + std::to_string(proc_.id()));
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
    const std::uint32_t round = idle_round++;
    if (due != 0) {
      // Packets queued for a future arrival: wait just until the earliest.
      // Sleep for long gaps (burning a shared core would distort every
      // other thread's timing more than a few us of wakeup latency
      // distorts this packet's), waking 10 us early for that latency.
      const std::uint64_t now = util::now_ns();
      if (due > now) {
        const std::uint64_t gap = due - now;
        if (gap > 15'000) {
          // At most one nap: egress rings are not drained while we sleep,
          // so a worker's push waits no longer than it would behind an
          // idle nap, however far out the next arrival (a retransmit
          // probe or delayed ack, src/fault/, sits hundreds of us out).
          // A 100 us cap saves CPU while such a deadline is armed, but
          // doubled gather-lossy's p90 (README, Idle policy).
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              std::min<std::uint64_t>(gap - 10'000, kIdleNapNs)));
        } else {
          util::spin_for_ns(std::min<std::uint64_t>(gap, 2'000));
        }
      }
      continue;
    }
    idle_wait(idle_step(round, /*may_nap=*/true).action);
  }
}

}  // namespace tram::rt
