#pragma once
///
/// \file fabric.hpp
/// \brief Simulated interconnect between simulated processes.
///
/// The fabric replaces the Delta network of the paper. Design:
///
///  - send(): the calling (comm) thread computes the packet's arrival time
///    from the CostModel. Injection serializes per *source node* through an
///    atomic busy-until timestamp, modeling a NIC: back-to-back messages
///    from one node queue behind each other for their injection time, then
///    spend the wire latency alpha in flight.
///  - The packet is pushed to the destination process's ingress MPSC queue
///    immediately; the *receiver* refrains from processing it until
///    wall-clock time reaches arrival_ns (see the reorder heap in
///    rt::Transport). This gives real wall-clock latency shapes without
///    any dedicated network threads. A copy the fault schedule delays
///    travels the same way, with the delay added to its arrival.
///  - With CostModel::zero() every modeled cost is 0, so arrival_ns equals
///    the send time and receivers process immediately (deterministic
///    tests), and a send skips the NIC-clock CAS.
///
/// Same-node cross-process messages take the cheaper local alpha/beta and
/// do not serialize through the node NIC (they model cma/xpmem copies).

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/cost_model.hpp"
#include "net/packet.hpp"
#include "util/mpsc_queue.hpp"
#include "util/spinlock.hpp"
#include "util/topology.hpp"

namespace tram::net {

/// Per-process fabric counters. Written by the owning comm thread / readers
/// after quiescence; relaxed atomics suffice.
struct FabricCounters {
  std::atomic<std::uint64_t> messages_sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  /// Subset of messages_sent with Packet::hops > 0: traffic re-shipped by
  /// a topological-routing intermediate rather than an originating
  /// worker.
  std::atomic<std::uint64_t> forwarded_sent{0};
};

class Fabric {
 public:
  Fabric(util::Topology topo, CostModel model);

  /// Hand a packet to the network. Fills in arrival_ns, extra_delay_ns
  /// past the modeled one, accounts stats, and enqueues on the
  /// destination ingress. The delay occupies no NIC or link. Thread-safe.
  /// Returns the computed arrival time.
  std::uint64_t send(Packet&& p, std::uint64_t extra_delay_ns = 0);

  /// Destination ingress queue for a process; drained by its comm thread.
  util::MpscQueue<Packet>& ingress(ProcId p) { return ingress_[p]->queue; }

  /// Counters of the packets one process sent.
  FabricCounters& counters(ProcId p) { return counters_[p]->value; }

  /// Sums of the per-process sent counters across all processes.
  std::uint64_t total_messages_sent() const {
    return total(&FabricCounters::messages_sent);
  }
  std::uint64_t total_bytes_sent() const {
    return total(&FabricCounters::bytes_sent);
  }
  std::uint64_t total_forwarded_sent() const {
    return total(&FabricCounters::forwarded_sent);
  }
  /// Per-link contention counters (all zero unless the cost model sets
  /// link_per_msg_ns/link_per_byte_ns): total time cross-node messages
  /// occupied destination ingress links, and the worst single queueing
  /// delay any message spent waiting behind others for its link.
  std::uint64_t link_busy_ns() const noexcept {
    return link_busy_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t max_link_queue_ns() const noexcept {
    return link_queue_ns_max_.load(std::memory_order_relaxed);
  }
  /// Messages handed to the fabric but not yet popped by a receiver.
  /// Used by quiescence detection: the system cannot be quiescent while
  /// packets are in flight.
  std::uint64_t in_flight() const;
  /// Receivers must call this after popping a packet from ingress() so
  /// in_flight() stays accurate.
  void note_received() noexcept {
    total_popped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Reset all counters and injection clocks (between benchmark trials).
  void reset();

 private:
  struct IngressSlot {
    util::MpscQueue<Packet> queue;
  };

  std::uint64_t total(std::atomic<std::uint64_t> FabricCounters::*field) const;

  util::Topology topo_;
  CostModel model_;
  // One NIC busy-until clock per node, padded to avoid false sharing.
  std::vector<std::unique_ptr<util::Padded<std::atomic<std::uint64_t>>>>
      nic_busy_until_;
  // One ingress-link busy-until clock per node: cross-node messages
  // converging on a node serialize through it for their link occupancy
  // (CostModel::link_occupancy_ns). Untouched when contention is off.
  std::vector<std::unique_ptr<util::Padded<std::atomic<std::uint64_t>>>>
      link_busy_until_;
  std::vector<std::unique_ptr<IngressSlot>> ingress_;
  std::vector<std::unique_ptr<util::Padded<FabricCounters>>> counters_;
  std::atomic<std::uint64_t> total_pushed_{0};
  std::atomic<std::uint64_t> total_popped_{0};
  std::atomic<std::uint64_t> link_busy_ns_{0};
  std::atomic<std::uint64_t> link_queue_ns_max_{0};
};

}  // namespace tram::net
