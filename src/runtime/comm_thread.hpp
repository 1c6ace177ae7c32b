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
///   3. when nothing was ready: sleep toward the transport's next modeled
///      arrival, at most one idle nap at a time, or, with nothing queued,
///      walk the idle ladder shared with the workers (runtime/idle.hpp).
///      The thread sleeps with a 1 ns timer slack.

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

  /// Messages this comm thread forwarded to the transport / delivered.
  std::uint64_t sent_count() const noexcept { return sent_; }
  std::uint64_t delivered_count() const noexcept { return delivered_; }

 private:
  /// Drain egress rings; returns number of messages forwarded.
  std::size_t pump_egress();
  /// Deliver due inbound traffic; returns number delivered.
  std::size_t pump_ingress();

  Machine& machine_;
  Process& proc_;
  Transport& transport_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace tram::rt
