#include "runtime/machine.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/tram_stats.hpp"
#include "fault/reliability.hpp"
#include "runtime/comm_thread.hpp"
#include "trace/trace.hpp"
#include "util/timebase.hpp"

namespace tram::rt {

namespace {
/// Counter-sampler cadence while tracing is enabled (trace::enabled()):
/// how often the sampler thread snapshots pool occupancy, send backlog,
/// in-flight messages, and reliability counters into counter events.
constexpr std::uint64_t kTraceSampleNs = 200'000;
}  // namespace

Machine::Machine(util::Topology topo, RuntimeConfig cfg)
    : topo_(topo),
      cfg_(cfg),
      fabric_(topo, cfg.cost),
      transport_(*this, fabric_) {
  if (!cfg_.dedicated_comm && topo_.workers_per_proc() != 1) {
    throw std::invalid_argument(
        "non-SMP mode (dedicated_comm=false) requires workers_per_proc==1");
  }
  procs_.reserve(static_cast<std::size_t>(topo_.procs()));
  for (ProcId p = 0; p < topo_.procs(); ++p) {
    procs_.push_back(std::make_unique<Process>(*this, p));
  }
  start_barrier_ = std::make_unique<std::barrier<>>(topo_.workers() + 1);
  worker_barrier_ = std::make_unique<std::barrier<>>(topo_.workers());
  // Spinning pays only while no runtime thread waits for a CPU: LLVM's
  // OpenMP runtime makes the same choice and yields when its threads
  // outnumber the processors. Non-SMP workers never park; their ladder
  // keeps its spin phase.
  idle_spin_ = !cfg_.dedicated_comm ||
               topo_.workers() + topo_.procs() <= util::available_cpus();
}

Machine::~Machine() = default;

EndpointId Machine::register_endpoint(Handler h) {
  if (running_) {
    throw std::logic_error("register_endpoint while machine is running");
  }
  return endpoints_.add(std::move(h));
}

core::FaultStats Machine::fault_stats() const {
  core::FaultStats s;
  if (const fault::Reliability* rel = transport_.reliability()) {
    s.faults_injected_drop = rel->drops_injected();
    s.faults_injected_dup = rel->dups_injected();
    s.faults_injected_delay = rel->delays_injected();
    s.retransmits = rel->retransmits();
    s.dup_drops = rel->dup_drops();
    s.acks_sent = rel->acks_sent();
    s.fast_retransmits = rel->fast_retransmits();
    s.rto_fires = rel->rto_fires();
    s.rtx_bytes = rel->rtx_bytes();
    s.paced_msgs = rel->paced_msgs();
    s.max_inflight_msgs = rel->max_inflight_msgs();
  }
  // Link counters live on the fabric, independent of fault injection:
  // nonzero whenever the cost model configures per-link contention.
  s.link_busy_ns = fabric_.link_busy_ns();
  s.max_link_queue_ns = fabric_.max_link_queue_ns();
  return s;
}

Worker& Machine::worker(WorkerId w) {
  return process(topo_.proc_of_worker(w)).worker(topo_.local_rank(w));
}

void Machine::barrier() { worker_barrier_->arrive_and_wait(); }

std::uint64_t Machine::total_pending() const {
  std::uint64_t total = 0;
  for (const auto& proc : procs_) {
    for (const auto& w : proc->workers_) total += w->pending();
  }
  return total;
}

void Machine::clear_worker_hooks() {
  for (auto& proc : procs_) {
    for (auto& w : proc->workers_) w->clear_hooks();
  }
}

void Machine::quiescence_wait(std::uint64_t& t_end_ns) {
  // Counting QD: every worker quiet, every sent message handled, no
  // buffered work. The (handled, sent) read order, handled with acquire,
  // makes a single positive sample sound at the instant handled was read;
  // the stability window guards the pending counters, which are
  // application-maintained and may lag a flush by a few instructions.
  // While a worker has work there is nothing to sample: park until the
  // last worker to go quiet unparks (note_quiet). Every wake is followed
  // by a sample and a 20 us sleep, so this thread wakes no more often
  // than a plain poll would.
  const int total_workers = topo_.workers();
  std::uint64_t first_ok_ns = 0;
  std::uint64_t first_ok_sent = 0;
  for (;;) {
    const bool quiet =
        quiet_workers_.load(std::memory_order_acquire) == total_workers;
    const std::uint64_t h = total_handled();
    const std::uint64_t s = total_sent();
    const bool ok = quiet && h == s && total_pending() == 0 &&
                    transport_.in_flight() == 0;
    const std::uint64_t now = util::now_ns();
    trace::instant(trace::Cat::kRuntime, trace::kQdRound, s - h,
                   ok ? 1u : 0u);
    if (!ok) {
      first_ok_ns = 0;
    } else if (first_ok_ns == 0) {
      first_ok_ns = now;
      first_ok_sent = s;
    } else if (s == first_ok_sent && now - first_ok_ns >= cfg_.qd_settle_ns) {
      t_end_ns = first_ok_ns;
      return;
    } else if (s != first_ok_sent) {
      first_ok_ns = 0;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    if (!quiet) qd_parker_.park_for(util::Parker::kForever);
  }
}

Machine::RunResult Machine::run(const std::function<void(Worker&)>& main_fn,
                                std::uint64_t seed) {
  if (running_) throw std::logic_error("Machine::run is not reentrant");
  running_ = true;

  stop_.store(false, std::memory_order_release);
  sent_.store(0, std::memory_order_relaxed);
  handled_.store(0, std::memory_order_relaxed);
  quiet_workers_.store(0, std::memory_order_relaxed);
  // A previous run must have drained completely: leftover messages would be
  // dispatched into the new run's state (and their payloads may alias
  // recycled pool slabs). Fail loudly rather than corrupt.
  if (transport_.in_flight() != 0) {
    throw std::logic_error("Machine::run: transport packets left over");
  }
  for (auto& proc : procs_) {
    for (auto& w : proc->workers_) {
      if (!w->inbox_.empty_approx() || !w->expedited_inbox_.empty_approx()) {
        throw std::logic_error("Machine::run: worker inbox not empty");
      }
    }
    for (LocalWorkerId r = 0; r < topo_.workers_per_proc(); ++r) {
      if (proc->egress(r).size_approx() != 0) {
        throw std::logic_error("Machine::run: egress ring not empty");
      }
    }
  }
  transport_.reset();
  for (auto& proc : procs_) {
    for (auto& w : proc->workers_) {
      w->reseed(seed);
    }
  }

  // While tracing: sample machine-wide occupancy into counter events on a
  // dedicated thread. Every source reads only atomics (the TSan job runs
  // traced machines).
  std::unique_ptr<trace::CounterSampler> sampler;
  if (trace::enabled()) {
    sampler = std::make_unique<trace::CounterSampler>(kTraceSampleNs);
    sampler->add("backlog msgs", [this] {
      const std::uint64_t h = total_handled();
      const std::uint64_t s = total_sent();
      return s > h ? s - h : 0;
    });
    sampler->add("pending items", [this] { return total_pending(); });
    sampler->add("transport in-flight",
                 [this] { return transport_.in_flight(); });
    sampler->add("pool outstanding bytes", [] {
      return core::payload_pool_stats().outstanding_bytes;
    });
    if (const fault::Reliability* rel = transport_.reliability()) {
      sampler->add("retransmits", [rel] { return rel->retransmits(); });
      sampler->add("paced msgs", [rel] { return rel->paced_msgs(); });
    }
    sampler->start();
  }

  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<CommThread>> comms;
  threads.reserve(static_cast<std::size_t>(topo_.workers() + topo_.procs()));

  if (cfg_.dedicated_comm) {
    comms.reserve(static_cast<std::size_t>(topo_.procs()));
    for (ProcId p = 0; p < topo_.procs(); ++p) {
      comms.push_back(std::make_unique<CommThread>(*this, process(p)));
      threads.emplace_back([ct = comms.back().get()] { ct->run(); });
    }
  }

  for (ProcId p = 0; p < topo_.procs(); ++p) {
    for (LocalWorkerId r = 0; r < topo_.workers_per_proc(); ++r) {
      Worker* w = &process(p).worker(r);
      threads.emplace_back([this, w, &main_fn] {
        util::tighten_timer_slack();
        w->owner_thread_.store(
            std::hash<std::thread::id>{}(std::this_thread::get_id()),
            std::memory_order_relaxed);
        trace::set_thread_name("worker " + std::to_string(w->id()));
        start_barrier_->arrive_and_wait();
        main_fn(*w);
        w->scheduler_loop();
        w->owner_thread_.store(0, std::memory_order_relaxed);
      });
    }
  }

  start_barrier_->arrive_and_wait();
  const std::uint64_t t0 = util::now_ns();

  std::uint64_t t_end = 0;
  quiescence_wait(t_end);
  stop_.store(true, std::memory_order_release);
  // A comm thread with nothing due parks with no timeout: wake every
  // runtime thread so it sees stop_.
  for (auto& proc : procs_) {
    proc->comm_parker().unpark();
    for (auto& w : proc->workers_) w->parker_.unpark();
  }
  for (auto& t : threads) t.join();
  if (sampler) sampler->stop();

  RunResult res;
  res.wall_s = static_cast<double>(t_end - t0) * 1e-9;
  res.fabric_messages = fabric_.total_messages_sent();
  res.fabric_bytes = fabric_.total_bytes_sent();
  res.forwarded_messages = fabric_.total_forwarded_sent();
  res.runtime_messages = total_sent();
  running_ = false;
  return res;
}

}  // namespace tram::rt
