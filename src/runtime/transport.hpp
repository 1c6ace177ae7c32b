#pragma once
///
/// \file transport.hpp
/// \brief The send/deliver seam between the runtime and the interconnect.
///
/// A Transport owns everything between "a Message leaves its source
/// process" and "a Message lands in a destination worker's inbox". The
/// base transport is ModeledFabricTransport: send() charges the calling
/// thread the per-message/per-byte comm cost and injects a net::Packet
/// into the fabric; poll() drains the fabric ingress into a per-process
/// reorder heap keyed by modeled arrival time and delivers everything
/// that is due. CostModel::zero() (RuntimeConfig::testing()) makes every
/// arrival due at once. The fault layer (src/fault/) decorates it.
///
/// The seam is five calls: send, poll, next_due_ns, in_flight and reset.
/// Traffic counters are not among them: they live on the net::Fabric the
/// Machine owns, which counts every packet that reaches it.
///
/// poll() also tells each worker when its next packet lands. A
/// process-addressed packet gets its worker (Process::pick_delivery_worker)
/// as it is drained into the heap, not at delivery, so every held packet
/// names its worker. After each poll the heap top's arrival is stored in
/// its worker's Worker::next_arrival_ns, and the worker the previous poll
/// named, if another, reads 0 again, as every worker does once the heap
/// is empty. An idle SMP worker parks toward that arrival
/// (runtime/idle.hpp), so it is awake when the packet lands.
///
/// Threading rule: every Transport call for process p (send() from p,
/// poll(p), next_due_ns(p), and the delivery tail with the
/// DeliveryInterceptor at p) runs on p's pump thread: its comm thread in
/// SMP mode, its single worker otherwise. Per-process transport state
/// therefore has one owner and needs no lock; per-channel state splits
/// the same way, the sender-side fields belonging to the source's thread
/// and the receiver-side fields to the destination's. send() never
/// delivers synchronously, so no layer is re-entered from below. Only
/// in_flight(), the fault layer's counters and the workers' arrival hints
/// are read from other threads (the QD thread, the trace sampler,
/// reporters, the workers), and those are atomics.

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

namespace tram::rt {

class Machine;
class Process;
class Worker;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Ship a cross-process message out of src_proc, charging the calling
  /// thread whatever processing cost the transport models. The message's
  /// destination is dst_worker, or dst_proc_hint when process-addressed.
  virtual void send(ProcId src_proc, Message&& m) = 0;

  /// Deliver due inbound messages for proc into its workers' inboxes, and
  /// refresh their arrival hints (Worker::next_arrival_ns). Returns the
  /// number delivered.
  virtual std::size_t poll(Process& proc) = 0;

  /// Earliest modeled arrival still pending for proc after the last
  /// poll(), or 0 when nothing is queued — the idle-wait hint.
  virtual std::uint64_t next_due_ns(ProcId p) const = 0;

  /// Messages accepted by send() but not yet delivered (quiescence
  /// detection: the machine cannot be quiescent while this is nonzero).
  virtual std::uint64_t in_flight() const = 0;

  /// Reset counters and clocks between runs (machine quiesced).
  virtual void reset() = 0;
};

/// Hook between a transport's delivery tail and the worker inbox. The
/// reliability layer (src/fault/) implements it to dedup retransmitted
/// data, record acks, and consume protocol control traffic before a
/// message is enqueued; when no interceptor is installed (the default,
/// fault injection off) the delivery tail is exactly what it was.
class DeliveryInterceptor {
 public:
  virtual ~DeliveryInterceptor() = default;
  /// Inspect (and possibly rewrite, e.g. strip a frame off) an inbound
  /// message before it is enqueued. Runs on the receiving process's pump
  /// thread. Return false to consume the message — a duplicate or a
  /// control message that must not reach an endpoint handler.
  virtual bool on_inbound(Process& proc, Message& m) = 0;
};

/// Shared delivery tail: run the machine's delivery interceptor (if any),
/// then enqueue the message into its destination worker's inbox.
/// m.dst_worker must already be concrete.
void deliver_to_process(Machine& machine, Process& proc, Message&& m);

/// Resolve a message's destination process (direct or process-addressed).
ProcId message_dst_proc(const Machine& machine, const Message& m);

/// The cost-model path: fabric injection with per-node NIC serialization,
/// modeled arrival times, and a destination-side reorder heap.
class ModeledFabricTransport final : public Transport {
 public:
  ModeledFabricTransport(Machine& machine, net::Fabric& fabric);

  void send(ProcId src_proc, Message&& m) override;
  std::size_t poll(Process& proc) override;
  std::uint64_t next_due_ns(ProcId p) const override;
  std::uint64_t in_flight() const override;
  void reset() override;

 private:
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

  /// Store the heap top's arrival in its worker's hint, and clear the
  /// hint of the worker the last poll named if the top moved away.
  void publish_next_arrival(Process& proc, ProcState& st);

  Machine& machine_;
  net::Fabric& fabric_;
  std::vector<std::unique_ptr<ProcState>> states_;
};

}  // namespace tram::rt
