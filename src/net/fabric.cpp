#include "net/fabric.hpp"

#include <stdexcept>

#include "util/timebase.hpp"

namespace tram::net {

Fabric::Fabric(util::Topology topo, CostModel model)
    : topo_(topo), model_(model) {
  nic_busy_until_.reserve(topo_.nodes());
  link_busy_until_.reserve(topo_.nodes());
  for (int n = 0; n < topo_.nodes(); ++n) {
    nic_busy_until_.push_back(
        std::make_unique<util::Padded<std::atomic<std::uint64_t>>>());
    link_busy_until_.push_back(
        std::make_unique<util::Padded<std::atomic<std::uint64_t>>>());
  }
  ingress_.reserve(topo_.procs());
  counters_.reserve(topo_.procs());
  for (int p = 0; p < topo_.procs(); ++p) {
    ingress_.push_back(std::make_unique<IngressSlot>());
    counters_.push_back(std::make_unique<util::Padded<FabricCounters>>());
  }
}

std::uint64_t Fabric::send(Packet&& p, std::uint64_t extra_delay_ns) {
  if (p.dst_proc < 0 || p.dst_proc >= topo_.procs()) {
    throw std::out_of_range("Fabric::send: bad dst_proc");
  }
  const NodeId src_node = topo_.node_of_proc(p.src_proc);
  const NodeId dst_node = topo_.node_of_proc(p.dst_proc);
  const bool same_node = src_node == dst_node;
  const std::size_t bytes = p.wire_bytes();
  const std::uint64_t now = util::now_ns();

  std::uint64_t arrival;
  if (same_node) {
    // Shared-memory transport: no NIC serialization, cheap alpha.
    arrival = now + model_.message_ns(bytes, /*same_node=*/true);
  } else {
    // Serialize injection through the source node's NIC clock. A message
    // with no injection cost occupies the NIC for zero time, so it never
    // pushes the clock forward — skip the contended RMW entirely (this is
    // what makes CostModel::zero() runs cheap without a cached flag).
    const std::uint64_t inj = model_.injection_ns(bytes, false);
    std::uint64_t end = now;
    if (inj != 0) {
      auto& busy = nic_busy_until_[src_node]->value;
      std::uint64_t prev = busy.load(std::memory_order_relaxed);
      std::uint64_t start;
      do {
        start = prev > now ? prev : now;
        end = start + inj;
      } while (!busy.compare_exchange_weak(prev, end,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed));
    }
    arrival = end + model_.wire_ns(false);
    // Serialize through the destination node's ingress link. Messages
    // converging on one node (a mesh hop's fan-in, an incast) queue
    // behind each other for their link occupancy — the contention that
    // makes a sender-side congestion window earn its keep. The same
    // CAS-max loop as the NIC clock, keyed by destination node.
    const std::uint64_t occ = model_.link_occupancy_ns(bytes);
    if (occ != 0) {
      auto& link = link_busy_until_[dst_node]->value;
      std::uint64_t prev = link.load(std::memory_order_relaxed);
      std::uint64_t start;
      std::uint64_t lend;
      do {
        start = prev > arrival ? prev : arrival;
        lend = start + occ;
      } while (!link.compare_exchange_weak(prev, lend,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed));
      link_busy_ns_.fetch_add(occ, std::memory_order_relaxed);
      const std::uint64_t queued = start - arrival;
      if (queued != 0) {
        std::uint64_t cur =
            link_queue_ns_max_.load(std::memory_order_relaxed);
        while (cur < queued && !link_queue_ns_max_.compare_exchange_weak(
                                   cur, queued, std::memory_order_relaxed)) {
        }
      }
      arrival = lend;
    }
  }
  arrival += extra_delay_ns;
  p.arrival_ns = arrival;

  auto& src_ctr = counters_[p.src_proc]->value;
  src_ctr.messages_sent.fetch_add(1, std::memory_order_relaxed);
  src_ctr.bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
  if (p.hops > 0) {
    src_ctr.forwarded_sent.fetch_add(1, std::memory_order_relaxed);
  }
  total_pushed_.fetch_add(1, std::memory_order_relaxed);

  ingress_[p.dst_proc]->queue.push(std::move(p));
  return arrival;
}

std::uint64_t Fabric::total(
    std::atomic<std::uint64_t> FabricCounters::*field) const {
  std::uint64_t sum = 0;
  for (const auto& c : counters_) {
    sum += (c->value.*field).load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t Fabric::in_flight() const {
  // Read popped before pushed: if a push lands between the two loads we may
  // report a phantom in-flight packet (safe: quiescence just retries), but
  // never miss a real one.
  const std::uint64_t popped = total_popped_.load(std::memory_order_acquire);
  const std::uint64_t pushed = total_pushed_.load(std::memory_order_acquire);
  return pushed - popped;
}

void Fabric::reset() {
  for (auto& n : nic_busy_until_) {
    n->value.store(0, std::memory_order_relaxed);
  }
  for (auto& n : link_busy_until_) {
    n->value.store(0, std::memory_order_relaxed);
  }
  link_busy_ns_.store(0, std::memory_order_relaxed);
  link_queue_ns_max_.store(0, std::memory_order_relaxed);
  for (auto& c : counters_) {
    c->value.messages_sent.store(0, std::memory_order_relaxed);
    c->value.bytes_sent.store(0, std::memory_order_relaxed);
    c->value.forwarded_sent.store(0, std::memory_order_relaxed);
  }
}

}  // namespace tram::net
