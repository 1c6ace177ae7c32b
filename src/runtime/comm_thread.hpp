#pragma once
///
/// \file comm_thread.hpp
/// \brief The dedicated communication thread of an SMP process.
///
/// Charm++'s SMP build devotes one core per process to communication; all
/// of the process's sends and receives funnel through it. The paper's
/// section III-A shows this thread is the serializing bottleneck for
/// fine-grained traffic — the effect reproduced by fig03_pingack — so the
/// transport charges a configurable per-message (and per-byte) processing
/// cost here, burned with a calibrated spin.
///
/// The comm thread itself is transport-agnostic: it only pumps. Loop
/// structure per iteration:
///   1. drain worker egress rings into Transport::send (the transport
///      charges the send cost and models the network);
///   2. Transport::poll delivers every due inbound message to the
///      destination worker's inbox (charging the receive cost);
///   3. when nothing was ready: walk the idle ladder shared with the
///      workers (runtime/idle.hpp, rt::comm_idle_step). With something
///      due (a modeled arrival, a retransmit probe, a delayed ack) it
///      skips the spin rounds and yields 16 rounds; with nothing due it
///      spins and yields as the workers do. Only the park step reads the
///      transport's next due time: park on Process::comm_parker() until
///      kWakeLeadNs before it, or spin toward it in chunks of at most
///      kDueSpinNs once it is within kParkMinGapNs (rt::park_budget_ns,
///      the rule the workers park toward their arrival hints by); with
///      nothing due, park with no timeout.
///      A worker's egress push and an arrival from another process
///      (Machine::wake_comm) unpark it. Deadlines the transport arms while
///      this thread sends or polls need no wake: it re-reads next_due_ns()
///      before every idle step. The thread sleeps with a 1 ns timer slack.

#include <cstdint>

namespace tram::rt {

class Machine;
class Process;
class Transport;

class CommThread {
 public:
  CommThread(Machine& machine, Process& proc);

  /// Thread body; returns when the machine stops and all queued traffic has
  /// been forwarded.
  void run();

 private:
  /// Drain egress rings; returns number of messages forwarded.
  std::size_t pump_egress();
  /// Deliver due inbound traffic; returns number delivered.
  std::size_t pump_ingress();

  Machine& machine_;
  Process& proc_;
  Transport& transport_;
};

}  // namespace tram::rt
