#include "runtime/transport.hpp"

#include <stdexcept>
#include <utility>

#include "net/fabric.hpp"
#include "runtime/machine.hpp"
#include "runtime/process.hpp"
#include "runtime/worker.hpp"
#include "util/spinlock.hpp"
#include "util/timebase.hpp"

namespace tram::rt {

void deliver_to_process(Machine& machine, Process& proc, Message&& m) {
  // One predictable branch on the fault-free path; the reliability layer
  // (src/fault/) dedups and strips its frame here when installed.
  if (DeliveryInterceptor* icpt = machine.delivery_interceptor()) {
    if (!icpt->on_inbound(proc, m)) return;
  }
  proc.worker(machine.topology().local_rank(m.dst_worker))
      .enqueue(std::move(m));
}

ProcId message_dst_proc(const Machine& machine, const Message& m) {
  return m.dst_worker == kInvalidWorker
             ? m.dst_proc_hint
             : machine.topology().proc_of_worker(m.dst_worker);
}

// ---- ModeledFabricTransport ----

ModeledFabricTransport::ModeledFabricTransport(Machine& machine,
                                               net::Fabric& fabric)
    : machine_(machine), fabric_(fabric) {
  const int procs = machine.topology().procs();
  states_.reserve(static_cast<std::size_t>(procs));
  for (int p = 0; p < procs; ++p) {
    states_.push_back(std::make_unique<ProcState>());
  }
}

void ModeledFabricTransport::send(ProcId src_proc, Message&& m) {
  const auto& cfg = machine_.config();
  // The per-message (and per-byte) processing cost of section III-A,
  // burned on the calling thread — the comm thread in SMP mode, the
  // worker itself otherwise.
  const double byte_cost =
      cfg.comm_per_byte_ns * static_cast<double>(m.payload.size());
  util::spin_for_ns(
      static_cast<std::uint64_t>(cfg.comm_per_msg_send_ns + byte_cost));

  if (m.hops > 0) forwarded_.fetch_add(1, std::memory_order_relaxed);

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
  fabric_.send(std::move(p));
  // The arrival lands in dst's ingress queue, which its comm thread only
  // drains when awake.
  machine_.wake_comm(dst);
}

std::size_t ModeledFabricTransport::poll(Process& proc) {
  const auto& cfg = machine_.config();
  auto& st = *states_[static_cast<std::size_t>(proc.id())];
  auto& q = fabric_.ingress(proc.id());
  while (auto p = q.try_pop()) st.heap.push(std::move(*p));

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
    m.dst_worker = p.dst_worker == kInvalidWorker
                       ? proc.pick_delivery_worker()
                       : p.dst_worker;
    m.payload = std::move(p.payload);
    deliver_to_process(machine_, proc, std::move(m));
    ++delivered;
    now = util::now_ns();
  }
  return delivered;
}

std::uint64_t ModeledFabricTransport::next_due_ns(ProcId p) const {
  const auto& heap = states_[static_cast<std::size_t>(p)]->heap;
  return heap.empty() ? 0 : heap.top().arrival_ns;
}

std::uint64_t ModeledFabricTransport::in_flight() const {
  // Packets in the reorder heaps have not been note_received yet, so the
  // fabric's pushed-minus-received count covers them too.
  return fabric_.in_flight();
}

std::uint64_t ModeledFabricTransport::total_messages() const {
  return fabric_.total_messages_sent();
}

std::uint64_t ModeledFabricTransport::total_bytes() const {
  return fabric_.total_bytes_sent();
}

std::uint64_t ModeledFabricTransport::total_forwarded() const {
  return forwarded_.load(std::memory_order_relaxed);
}

void ModeledFabricTransport::reset() {
  forwarded_.store(0, std::memory_order_relaxed);
  fabric_.reset();
}

// ---- InlineTransport ----

InlineTransport::InlineTransport(Machine& machine) : machine_(machine) {}

void InlineTransport::send(ProcId /*src_proc*/, Message&& m) {
  const ProcId dst = message_dst_proc(machine_, m);
  if (dst < 0 || dst >= machine_.topology().procs()) {
    throw std::out_of_range("InlineTransport::send: bad dst_proc");
  }
  messages_.fetch_add(1, std::memory_order_relaxed);
  if (m.hops > 0) forwarded_.fetch_add(1, std::memory_order_relaxed);
  // Charge the same fixed header as the fabric so byte counters compare.
  bytes_.fetch_add(m.payload.size() + net::Packet::kHeaderBytes,
                   std::memory_order_relaxed);
  Process& proc = machine_.process(dst);
  if (m.dst_worker == kInvalidWorker) {
    m.dst_worker = proc.pick_delivery_worker();
  }
  deliver_to_process(machine_, proc, std::move(m));
}

std::size_t InlineTransport::poll(Process&) { return 0; }

std::uint64_t InlineTransport::next_due_ns(ProcId) const { return 0; }

std::uint64_t InlineTransport::in_flight() const { return 0; }

std::uint64_t InlineTransport::total_messages() const {
  return messages_.load(std::memory_order_relaxed);
}

std::uint64_t InlineTransport::total_bytes() const {
  return bytes_.load(std::memory_order_relaxed);
}

std::uint64_t InlineTransport::total_forwarded() const {
  return forwarded_.load(std::memory_order_relaxed);
}

void InlineTransport::reset() {
  messages_.store(0, std::memory_order_relaxed);
  bytes_.store(0, std::memory_order_relaxed);
  forwarded_.store(0, std::memory_order_relaxed);
}

}  // namespace tram::rt
