#pragma once
///
/// \file transport.hpp
/// \brief The send/deliver path between the runtime and the interconnect.
///
/// The Transport owns everything between "a Message leaves its source
/// process" and "a Message lands in a destination worker's inbox". send()
/// charges the calling thread the per-message/per-byte comm cost and
/// injects a net::Packet into the fabric; poll() drains the fabric ingress
/// into a per-process reorder heap keyed by modeled arrival time and
/// delivers everything that is due. CostModel::zero()
/// (RuntimeConfig::testing()) makes every arrival due at once.
///
/// With any cfg.fault knob set, the Transport owns a reliability stage
/// (fault::Reliability) and calls it directly, behind one null check per
/// call: send() hands it the message, which emits its wire copies through
/// inject(); the delivery tail runs every inbound message through its
/// on_inbound(); poll() ends with its timers; next_due_ns() and
/// in_flight() add its deadlines and unacked messages. Traffic counters
/// live on the net::Fabric the Machine owns, which counts every packet
/// that reaches it.
///
/// poll() also tells each worker when its next packet lands. A
/// process-addressed packet gets its worker (Process::pick_delivery_worker)
/// as it is drained into the heap, not at delivery, so every queued packet
/// names its worker. After each poll the heap top's arrival is stored in
/// its worker's Worker::next_arrival_ns, and the worker the previous poll
/// named, if another, reads 0 again, as every worker does once the heap
/// is empty. An idle SMP worker parks toward that arrival
/// (runtime/idle.hpp), so it is awake when the packet lands.
///
/// Threading rule: every Transport call for process p (send() from p,
/// poll(p), next_due_ns(p), and the delivery tail at p) runs on p's pump
/// thread: its comm thread in SMP mode, its single worker otherwise.
/// Per-process transport state therefore has one owner and needs no lock;
/// per-channel state splits the same way, the sender-side fields belonging
/// to the source's thread and the receiver-side fields to the
/// destination's. send() never delivers synchronously, so nothing is
/// re-entered from below. Only in_flight(), the reliability stage's
/// counters and the workers' arrival hints are read from other threads
/// (the QD thread, the trace sampler, reporters, the workers), and those
/// are atomics.

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "net/packet.hpp"
#include "runtime/message.hpp"
#include "util/types.hpp"

namespace tram::net {
class Fabric;
}
namespace tram::fault {
class Reliability;
}

namespace tram::rt {

class Machine;
class Process;
class Worker;

/// Resolve a message's destination process (direct or process-addressed).
ProcId message_dst_proc(const Machine& machine, const Message& m);

/// The cost-model path: fabric injection with per-node NIC serialization,
/// modeled arrival times, and a destination-side reorder heap.
class Transport {
 public:
  /// Installs the reliability stage when machine.config().fault is
  /// enabled.
  Transport(Machine& machine, net::Fabric& fabric);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Ship a cross-process message out of src_proc, charging the calling
  /// thread the modeled processing cost. The message's destination is
  /// dst_worker, or dst_proc_hint when process-addressed.
  void send(ProcId src_proc, Message&& m);

  /// Deliver due inbound messages for proc into its workers' inboxes,
  /// refresh their arrival hints (Worker::next_arrival_ns), then run the
  /// reliability stage's timers. Returns the number of packets taken off
  /// the reorder heap.
  std::size_t poll(Process& proc);

  /// The earlier of the earliest modeled arrival still queued for p after
  /// the last poll() and the reliability stage's next deadline for p, or
  /// 0 when neither exists — the idle-wait hint.
  std::uint64_t next_due_ns(ProcId p) const;

  /// Messages accepted by send() but not yet delivered: packets in the
  /// fabric or a reorder heap, plus the stage's unacked messages
  /// (quiescence detection: the machine cannot be quiescent while this is
  /// nonzero).
  std::uint64_t in_flight() const;

  /// Reset counters and clocks between runs (machine quiesced).
  void reset();

  /// The fault-injection and reliability stage, or nullptr when
  /// cfg.fault is all-zero (the fast path).
  fault::Reliability* reliability() const noexcept {
    return reliability_.get();
  }

 private:
  friend class fault::Reliability;

  /// Per-process reorder heap; only touched by that process's pumping
  /// thread, so no locking. unique_ptr keeps neighbours off one line.
  struct ProcState {
    std::priority_queue<net::Packet, std::vector<net::Packet>,
                        net::PacketLater>
        heap;
    /// The worker the last poll gave an arrival hint (nullptr: none), and
    /// the hint.
    Worker* hinted = nullptr;
    std::uint64_t hinted_ns = 0;
  };

  /// Put one wire copy on the fabric, charging the modeled send cost; a
  /// nonzero extra_delay_ns (a delayed copy of the reliability stage)
  /// lands that much later.
  void inject(ProcId src_proc, Message&& m, std::uint64_t extra_delay_ns = 0);

  /// Store the heap top's arrival in its worker's hint, and clear the
  /// hint of the worker the last poll named if the top moved away.
  void publish_next_arrival(Process& proc, ProcState& st);

  Machine& machine_;
  net::Fabric& fabric_;
  std::vector<std::unique_ptr<ProcState>> states_;
  std::unique_ptr<fault::Reliability> reliability_;
};

}  // namespace tram::rt
