#pragma once
///
/// \file config.hpp
/// \brief Runtime tuning knobs (transport, faults, comm-thread costs, QD).
///
/// The idle policy is not a knob: workers and comm threads share one
/// fixed spin -> yield -> nap ladder (runtime/idle.hpp).

#include <cstdint>

#include "fault/fault_config.hpp"
#include "net/cost_model.hpp"

namespace tram::rt {

/// Which Transport implementation the machine drives its traffic through
/// (see runtime/transport.hpp).
enum class TransportKind {
  /// Cost-model fabric: NIC serialization, modeled latencies, reorder heap.
  kModeledFabric,
  /// Zero-delay direct delivery into destination inboxes: deterministic
  /// tests without the CostModel::zero() machinery.
  kInline,
};

struct RuntimeConfig {
  /// Interconnect model (see net::CostModel). zero() for deterministic
  /// tests, delta_like() for benchmarks. Ignored by kInline transport.
  net::CostModel cost = net::CostModel::delta_like();

  /// Transport implementation carrying cross-process messages.
  TransportKind transport = TransportKind::kModeledFabric;

  /// Fault injection (src/fault/). All-zero (the default) leaves the
  /// transport above exactly as selected — no decorators, no reliability
  /// headers, no per-message cost. Any nonzero knob wraps it in the
  /// FaultyTransport + ReliableTransport pair, which injects the faults
  /// and restores exactly-once delivery on top of them.
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

  /// Max messages a worker handles per progress() call before returning to
  /// the application (bounds latency of interleaved compute/progress loops).
  std::uint32_t progress_batch = 64;

  /// Quiescence detection: the condition must hold this long (two samples)
  /// before the machine declares termination.
  std::uint64_t qd_settle_ns = 200'000;

  /// Counter-sampler cadence while tracing is enabled (trace::enabled()):
  /// how often the sampler thread snapshots pool occupancy, send backlog,
  /// in-flight messages, and reliability counters into counter events.
  std::uint64_t trace_sample_ns = 200'000;

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

  /// testing(), but over the InlineTransport: the fastest deterministic
  /// mode (no fabric, no reorder heap, no NIC clock).
  static RuntimeConfig inline_testing() {
    RuntimeConfig c = testing();
    c.transport = TransportKind::kInline;
    return c;
  }
};

}  // namespace tram::rt
