#include "runtime/transport.hpp"

#include <algorithm>
#include <utility>

#include "fault/reliability.hpp"
#include "net/fabric.hpp"
#include "runtime/machine.hpp"
#include "runtime/process.hpp"
#include "runtime/worker.hpp"
#include "util/timebase.hpp"

namespace tram::rt {

ProcId message_dst_proc(const Machine& machine, const Message& m) {
  return m.dst_worker == kInvalidWorker
             ? m.dst_proc_hint
             : machine.topology().proc_of_worker(m.dst_worker);
}

Transport::Transport(Machine& machine, net::Fabric& fabric)
    : machine_(machine), fabric_(fabric) {
  const int procs = machine.topology().procs();
  states_.reserve(static_cast<std::size_t>(procs));
  for (int p = 0; p < procs; ++p) {
    states_.push_back(std::make_unique<ProcState>());
  }
  if (machine.config().fault.enabled()) {
    // One stage injects the faults and recovers from them: a lossy fabric
    // without reliability would hang quiescence on the first drop.
    reliability_ =
        std::make_unique<fault::Reliability>(*this, machine.config().fault);
  }
}

Transport::~Transport() = default;

void Transport::send(ProcId src_proc, Message&& m) {
  if (reliability_) {
    reliability_->send(src_proc, std::move(m));
  } else {
    inject(src_proc, std::move(m));
  }
}

void Transport::inject(ProcId src_proc, Message&& m,
                       std::uint64_t extra_delay_ns) {
  const auto& cfg = machine_.config();
  // The per-message (and per-byte) processing cost of section III-A,
  // burned on the calling thread — the comm thread in SMP mode, the
  // worker itself otherwise.
  const double byte_cost =
      cfg.comm_per_byte_ns * static_cast<double>(m.payload.size());
  util::spin_for_ns(
      static_cast<std::uint64_t>(cfg.comm_per_msg_send_ns + byte_cost));

  net::Packet p;
  p.src_proc = src_proc;
  p.dst_proc = message_dst_proc(machine_, m);
  p.dst_worker = m.dst_worker;
  p.src_worker = m.src_worker;
  p.endpoint = m.endpoint;
  p.expedited = m.expedited;
  p.hops = m.hops;
  p.payload = std::move(m.payload);
  const ProcId dst = p.dst_proc;
  fabric_.send(std::move(p), extra_delay_ns);
  // The arrival lands in dst's ingress queue, which its comm thread only
  // drains when awake.
  machine_.wake_comm(dst);
}

std::size_t Transport::poll(Process& proc) {
  const auto& cfg = machine_.config();
  auto& st = *states_[static_cast<std::size_t>(proc.id())];
  auto& q = fabric_.ingress(proc.id());
  while (auto p = q.try_pop()) {
    // A process-addressed packet gets its worker now, so the arrival hint
    // below can name it.
    if (p->dst_worker == kInvalidWorker) {
      p->dst_worker = proc.pick_delivery_worker();
    }
    st.heap.push(std::move(*p));
  }

  std::size_t delivered = 0;
  std::uint64_t now = util::now_ns();
  while (!st.heap.empty() && st.heap.top().arrival_ns <= now) {
    // priority_queue::top is const; the element is popped immediately
    // after, so the const_cast move is safe.
    net::Packet p = std::move(const_cast<net::Packet&>(st.heap.top()));
    st.heap.pop();
    const double byte_cost =
        cfg.comm_per_byte_ns * static_cast<double>(p.payload.size());
    util::spin_for_ns(
        static_cast<std::uint64_t>(cfg.comm_per_msg_recv_ns + byte_cost));
    fabric_.note_received(proc.id(), p);

    Message m;
    m.endpoint = p.endpoint;
    m.src_worker = p.src_worker;
    m.expedited = p.expedited;
    m.hops = p.hops;
    m.dst_worker = p.dst_worker;
    m.payload = std::move(p.payload);
    // One predictable branch on the fault-free path; the reliability
    // stage dedups, consumes acks and strips its frame here.
    if (!reliability_ || reliability_->on_inbound(proc.id(), m)) {
      proc.worker(machine_.topology().local_rank(m.dst_worker))
          .enqueue(std::move(m));
    }
    ++delivered;
    now = util::now_ns();
  }
  publish_next_arrival(proc, st);
  if (reliability_) reliability_->poll(proc.id());
  return delivered;
}

void Transport::publish_next_arrival(Process& proc, ProcState& st) {
  Worker* top = nullptr;
  std::uint64_t due = 0;
  if (!st.heap.empty()) {
    const net::Packet& p = st.heap.top();
    top = &proc.worker(machine_.topology().local_rank(p.dst_worker));
    due = p.arrival_ns;
  }
  // The comm thread polls every few us while it waits for a due packet;
  // store only what changed.
  if (top == st.hinted && due == st.hinted_ns) return;
  if (st.hinted != nullptr && st.hinted != top) {
    st.hinted->set_next_arrival_ns(0);
  }
  if (top != nullptr) top->set_next_arrival_ns(due);
  st.hinted = top;
  st.hinted_ns = due;
}

std::uint64_t Transport::next_due_ns(ProcId p) const {
  const auto& heap = states_[static_cast<std::size_t>(p)]->heap;
  const std::uint64_t arrival = heap.empty() ? 0 : heap.top().arrival_ns;
  if (!reliability_) return arrival;
  // The earlier of the two; either may be 0, "none".
  const std::uint64_t deadline = reliability_->next_due_ns(p);
  if (arrival == 0) return deadline;
  if (deadline == 0) return arrival;
  return std::min(arrival, deadline);
}

std::uint64_t Transport::in_flight() const {
  // Packets in the reorder heaps have not been note_received yet, so the
  // fabric's pushed-minus-received count covers them too, delayed copies
  // included.
  return fabric_.in_flight() +
         (reliability_ ? reliability_->in_flight() : 0);
}

void Transport::reset() {
  if (reliability_) reliability_->reset();
  fabric_.reset();
}

}  // namespace tram::rt
