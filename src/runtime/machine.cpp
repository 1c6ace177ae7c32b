#include "runtime/machine.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/tram_stats.hpp"
#include "fault/faulty_transport.hpp"
#include "fault/reliable_transport.hpp"
#include "runtime/comm_thread.hpp"
#include "runtime/transport.hpp"
#include "trace/trace.hpp"
#include "util/timebase.hpp"

namespace tram::rt {

Machine::Machine(util::Topology topo, RuntimeConfig cfg)
    : topo_(topo), cfg_(cfg), fabric_(topo, cfg.cost) {
  if (!cfg_.dedicated_comm && topo_.workers_per_proc() != 1) {
    throw std::invalid_argument(
        "non-SMP mode (dedicated_comm=false) requires workers_per_proc==1");
  }
  std::unique_ptr<Transport> base;
  switch (cfg_.transport) {
    case TransportKind::kModeledFabric:
      base = std::make_unique<ModeledFabricTransport>(*this, fabric_);
      break;
    case TransportKind::kInline:
      base = std::make_unique<InlineTransport>(*this);
      break;
  }
  if (cfg_.fault.enabled()) {
    // Faults and the recovery protocol install together: a lossy fabric
    // without reliability would hang quiescence on the first drop.
    cfg_.fault.validate();
    auto faulty = std::make_unique<fault::FaultyTransport>(
        *this, std::move(base), cfg_.fault);
    faulty_ = faulty.get();
    auto reliable = std::make_unique<fault::ReliableTransport>(
        *this, std::move(faulty), cfg_.fault);
    reliable_ = reliable.get();
    interceptor_ = reliable_;
    transport_ = std::move(reliable);
  } else {
    transport_ = std::move(base);
  }
  procs_.reserve(static_cast<std::size_t>(topo_.procs()));
  for (ProcId p = 0; p < topo_.procs(); ++p) {
    procs_.push_back(std::make_unique<Process>(*this, p));
  }
  start_barrier_ = std::make_unique<std::barrier<>>(topo_.workers() + 1);
  worker_barrier_ = std::make_unique<std::barrier<>>(topo_.workers());
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
  if (faulty_ != nullptr) {
    s.faults_injected_drop = faulty_->drops_injected();
    s.faults_injected_dup = faulty_->dups_injected();
    s.faults_injected_delay = faulty_->delays_injected();
  }
  if (reliable_ != nullptr) {
    s.retransmits = reliable_->retransmits();
    s.dup_drops = reliable_->dup_drops();
    s.acks_sent = reliable_->acks_sent();
    s.fast_retransmits = reliable_->fast_retransmits();
    s.rto_fires = reliable_->rto_fires();
    s.rtx_bytes = reliable_->rtx_bytes();
    s.paced_msgs = reliable_->paced_msgs();
    s.max_inflight_msgs = reliable_->max_inflight_msgs();
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
  for (auto& proc : procs_) proc->shared().clear();
}

void Machine::quiescence_wait(std::uint64_t& t_end_ns) {
  // Counting QD: mains done, every sent message handled, no buffered work.
  // The (handled, sent) read order makes a single positive sample sound at
  // the instant handled was read; the stability window guards the pending
  // counters, which are application-maintained and may lag a flush by a few
  // instructions.
  const int total_workers = topo_.workers();
  std::uint64_t first_ok_ns = 0;
  std::uint64_t first_ok_sent = 0;
  for (;;) {
    const std::uint64_t h = total_handled();
    const std::uint64_t s = total_sent();
    const bool ok = mains_done_.load(std::memory_order_acquire) ==
                        total_workers &&
                    h == s && total_pending() == 0 &&
                    transport_->in_flight() == 0;
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
  }
}

Machine::RunResult Machine::run(const std::function<void(Worker&)>& main_fn,
                                std::uint64_t seed) {
  if (running_) throw std::logic_error("Machine::run is not reentrant");
  running_ = true;

  stop_.store(false, std::memory_order_release);
  sent_.store(0, std::memory_order_relaxed);
  handled_.store(0, std::memory_order_relaxed);
  mains_done_.store(0, std::memory_order_relaxed);
  // A previous run must have drained completely: leftover messages would be
  // dispatched into the new run's state (and their payloads may alias
  // recycled pool slabs). Fail loudly rather than corrupt.
  if (transport_->in_flight() != 0) {
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
  transport_->reset();
  for (auto& proc : procs_) {
    for (auto& w : proc->workers_) {
      w->reseed(seed);
      w->handled_.store(0, std::memory_order_relaxed);
    }
  }

  // While tracing: sample machine-wide occupancy into counter events on a
  // dedicated thread. Every source reads only atomics (the TSan job runs
  // traced machines).
  std::unique_ptr<trace::CounterSampler> sampler;
  if (trace::enabled()) {
    sampler = std::make_unique<trace::CounterSampler>(cfg_.trace_sample_ns);
    sampler->add("backlog msgs", [this] {
      const std::uint64_t h = total_handled();
      const std::uint64_t s = total_sent();
      return s > h ? s - h : 0;
    });
    sampler->add("pending items", [this] { return total_pending(); });
    sampler->add("transport in-flight",
                 [this] { return transport_->in_flight(); });
    sampler->add("pool outstanding bytes", [] {
      return core::payload_pool_stats().outstanding_bytes;
    });
    if (reliable_ != nullptr) {
      sampler->add("retransmits",
                   [this] { return reliable_->retransmits(); });
      sampler->add("paced msgs", [this] { return reliable_->paced_msgs(); });
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
        mains_done_.fetch_add(1, std::memory_order_acq_rel);
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
  for (auto& t : threads) t.join();
  if (sampler) sampler->stop();

  RunResult res;
  res.wall_s = static_cast<double>(t_end - t0) * 1e-9;
  res.fabric_messages = transport_->total_messages();
  res.fabric_bytes = transport_->total_bytes();
  res.forwarded_messages = transport_->total_forwarded();
  res.runtime_messages = total_sent();
  running_ = false;
  return res;
}

}  // namespace tram::rt
