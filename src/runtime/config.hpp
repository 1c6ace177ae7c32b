#pragma once
///
/// \file config.hpp
/// \brief Runtime tuning knobs (cost model, faults, comm-thread costs, QD).
///
/// The idle policy is not a knob: workers and comm threads share one
/// fixed spin -> yield -> park ladder (runtime/idle.hpp), and an SMP
/// Machine skips the spin rounds when its runtime threads outnumber the
/// CPUs.

#include <cstdint>

#include "fault/fault_config.hpp"
#include "net/cost_model.hpp"

namespace tram::rt {

struct RuntimeConfig {
  /// Interconnect model (see net::CostModel). zero() for deterministic
  /// tests, delta_like() for benchmarks.
  net::CostModel cost = net::CostModel::delta_like();

  /// Fault injection (src/fault/). All-zero (the default) installs no
  /// reliability stage in the transport — no reliability headers, no
  /// per-message cost. Any nonzero knob installs fault::Reliability, which
  /// injects the faults and restores exactly-once delivery on top of
  /// them.
  fault::FaultConfig fault;

  /// Comm-thread occupancy per message sent / received, nanoseconds. This
  /// models the paper's section III-A finding: the dedicated comm thread
  /// serializes all of a process's traffic, and below ~167ns of application
  /// work per word it becomes the bottleneck. Burned with a calibrated spin
  /// on the comm thread (or on the worker itself in non-SMP mode).
  double comm_per_msg_send_ns = 350.0;
  double comm_per_msg_recv_ns = 350.0;
  /// Additional comm-thread occupancy per payload byte (memcpy-ish).
  double comm_per_byte_ns = 0.01;

  /// SMP mode: one dedicated comm thread per process (Charm++ SMP build).
  /// When false, every worker drives its own communication (non-SMP /
  /// MPI-everywhere); requires workers_per_proc == 1.
  bool dedicated_comm = true;

  /// Capacity of each worker -> comm-thread egress ring.
  std::uint32_t egress_ring_capacity = 2048;

  /// Quiescence detection: the condition must hold this long (two samples)
  /// before the machine declares termination.
  std::uint64_t qd_settle_ns = 200'000;

  /// Returns a config with a zero-cost interconnect and zero comm-thread
  /// per-message costs: deterministic unit-test mode.
  static RuntimeConfig testing() {
    RuntimeConfig c;
    c.cost = net::CostModel::zero();
    c.comm_per_msg_send_ns = 0.0;
    c.comm_per_msg_recv_ns = 0.0;
    c.comm_per_byte_ns = 0.0;
    c.qd_settle_ns = 50'000;
    return c;
  }
};

}  // namespace tram::rt
