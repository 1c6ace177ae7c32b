#pragma once
///
/// \file tram_stats.hpp
/// \brief TramLib instrumentation, and the paper's section III-C cost
/// formulas as checkable functions.

#include <cstdint>

#include "core/scheme.hpp"
#include "util/payload_pool.hpp"
#include "util/stats.hpp"
#include "util/topology.hpp"

namespace tram::core {

/// Snapshot of the process-wide payload pool feeding every aggregation
/// buffer and message payload. Benchmarks report recycle_rate() (and
/// occupancy: outstanding/free_slabs) to substantiate the zero-copy,
/// allocation-free claim on the steady-state insert -> flush -> deliver
/// path.
inline util::PayloadPool::Stats payload_pool_stats() {
  return util::PayloadPool::global().stats();
}

/// Zero the pool counters between benchmark trials (cached slabs remain,
/// so a post-warmup trial measures pure recycling).
inline void reset_payload_pool_stats() {
  util::PayloadPool::global().reset_stats();
}

/// Per-worker aggregation counters (owned by one worker; merged after a
/// run, so plain fields suffice except where the QD thread also reads).
struct WorkerTramStats {
  std::uint64_t items_inserted = 0;
  std::uint64_t items_delivered = 0;
  /// Buffers shipped as messages by this worker (full-buffer sends).
  std::uint64_t msgs_shipped = 0;
  /// Subset of msgs_shipped triggered by flush (partially full).
  std::uint64_t flush_msgs = 0;
  /// Local regroup messages generated at the destination (every scheme
  /// but None and WW).
  std::uint64_t regroup_msgs = 0;
  /// CAS retries while claiming PP slots (contention indicator).
  std::uint64_t pp_cas_retries = 0;
  /// Items routed through the priority path (insert_priority).
  std::uint64_t priority_items = 0;
  /// Expedited messages shipped by the priority path.
  std::uint64_t priority_msgs = 0;
  /// Messages a mesh slot shipped along a dimension: every ship of WPs,
  /// WsP (the 1-D mesh) and Mesh2D/Mesh3D, from sources and intermediates
  /// alike.
  std::uint64_t routed_hop_msgs = 0;
  /// Messages shipped from an intermediate hop (subset of
  /// routed_hop_msgs; 0 on the 1-D mesh).
  std::uint64_t routed_forward_msgs = 0;
  /// Entries re-aggregated into a next-dimension buffer at an
  /// intermediate. An item whose destination differs from its source in
  /// k mesh dimensions contributes k-1 here (d-1 worst case).
  std::uint64_t routed_forwarded_items = 0;
  /// Final messages shipped pre-sorted by destination local rank
  /// (RoutedHeader::kSortedMagic): every WsP message and a mesh's last
  /// hops; 0 for WPs, whose receiver groups (subset of routed_hop_msgs).
  std::uint64_t routed_sorted_msgs = 0;
  /// Runs of a final batch handed to the workers of its process as
  /// refcounted views of one slab (own-rank runs delivered in place plus
  /// sub-view regroup messages) — zero-copy scatter adoption. Counted for
  /// every scheme but None and WW.
  std::uint64_t routed_subview_deliveries = 0;
  /// Always 0: nothing sets these two any more, because an intermediate
  /// copies each forwarded entry exactly once, into its next-hop slot, and
  /// stages nothing. They stay only because bench/e2e reports them as
  /// route.fwd_copy_bytes and route.max_staged_fwd_bytes.
  std::uint64_t routed_forward_copy_bytes = 0;
  std::uint64_t max_staged_fwd_bytes = 0;
  /// Items per shipped message, observed at ship time.
  util::RunningStats occupancy_at_ship;

  void merge(const WorkerTramStats& o) {
    items_inserted += o.items_inserted;
    items_delivered += o.items_delivered;
    msgs_shipped += o.msgs_shipped;
    flush_msgs += o.flush_msgs;
    regroup_msgs += o.regroup_msgs;
    pp_cas_retries += o.pp_cas_retries;
    priority_items += o.priority_items;
    priority_msgs += o.priority_msgs;
    routed_hop_msgs += o.routed_hop_msgs;
    routed_forward_msgs += o.routed_forward_msgs;
    routed_forwarded_items += o.routed_forwarded_items;
    routed_sorted_msgs += o.routed_sorted_msgs;
    routed_subview_deliveries += o.routed_subview_deliveries;
    occupancy_at_ship.merge(o.occupancy_at_ship);
  }
};

/// Fault-injection and reliability counters (src/fault/), filled
/// machine-wide by rt::Machine::fault_stats() from fault::Reliability,
/// except the two link counters, which come from the net::Fabric. The
/// rest are zero when fault injection is off — the zero-fault path never
/// touches this machinery.
struct FaultStats {
  /// Wire copies the fault schedule swallowed / sent twice / delayed.
  std::uint64_t faults_injected_drop = 0;
  std::uint64_t faults_injected_dup = 0;
  std::uint64_t faults_injected_delay = 0;
  /// Messages re-shipped, for any reason (timer or SACK hole).
  std::uint64_t retransmits = 0;
  /// Data messages the receiver-side dedup window consumed.
  std::uint64_t dup_drops = 0;
  /// Standalone cumulative acks (piggybacked acks ride data for free).
  std::uint64_t acks_sent = 0;
  /// Retransmits triggered by a SACK-reported hole, without waiting for
  /// the timer (subset of retransmits).
  std::uint64_t fast_retransmits = 0;
  /// Retransmit-timer expirations; with SACK each may batch several
  /// retransmits, so retransmits / rto_fires is the recovery batch size.
  std::uint64_t rto_fires = 0;
  /// Framed bytes re-shipped — the byte overhead recovery paid.
  std::uint64_t rtx_bytes = 0;
  /// Messages that waited in a sender-side pacing queue (past the AIMD
  /// congestion window) before first transmit.
  std::uint64_t paced_msgs = 0;
  /// High-water mark of per-channel transmitted-and-unacked messages —
  /// how far AIMD actually opened the window.
  std::uint64_t max_inflight_msgs = 0;
  /// Per-link contention (net::Fabric): total time cross-node messages
  /// occupied destination ingress links, and the worst single queueing
  /// delay behind one. Zero unless the cost model sets link occupancy.
  std::uint64_t link_busy_ns = 0;
  std::uint64_t max_link_queue_ns = 0;
};

/// ---- Section III-C formulas ----
/// Notation: g items per buffer, m bytes per item, N processes, t workers
/// per process, z items sent per source PE.

/// Buffer memory per source core (bytes).
inline std::uint64_t buffer_bytes_per_core(Scheme s, std::uint64_t g,
                                           std::uint64_t m, std::uint64_t N,
                                           std::uint64_t t) {
  switch (s) {
    case Scheme::WW: return g * m * N * t;     // one buffer per dest PE
    case Scheme::WPs:
    case Scheme::WsP: return g * m * N;        // one buffer per dest process
    case Scheme::PP: return 0;                 // buffers live on the process
    case Scheme::None: return 0;
    case Scheme::Mesh2D:
    case Scheme::Mesh3D: return 0;  // use routed_buffer_bytes_per_core(dims)
  }
  return 0;
}

/// Buffer memory per source process (bytes).
inline std::uint64_t buffer_bytes_per_process(Scheme s, std::uint64_t g,
                                              std::uint64_t m,
                                              std::uint64_t N,
                                              std::uint64_t t) {
  switch (s) {
    case Scheme::WW: return g * m * N * t * t;
    case Scheme::WPs:
    case Scheme::WsP: return g * m * N * t;
    case Scheme::PP: return g * m * N;  // shared: one buffer per dest process
    case Scheme::None: return 0;
    case Scheme::Mesh2D:
    case Scheme::Mesh3D: return 0;  // use routed_buffer_bytes_per_core(dims)
  }
  return 0;
}

/// Bounds on messages sent per source unit for z items from each source PE
/// (per PE for WW/WPs/WsP; per process for PP with z*t items contributed).
struct MessageBounds {
  std::uint64_t lower = 0;
  std::uint64_t upper = 0;
};

inline MessageBounds messages_per_source(Scheme s, std::uint64_t z,
                                         std::uint64_t g, std::uint64_t N,
                                         std::uint64_t t) {
  MessageBounds b;
  switch (s) {
    case Scheme::WW:
      b.lower = z / g;
      b.upper = z / g + N * t;
      break;
    case Scheme::WPs:
    case Scheme::WsP:
      b.lower = z / g;
      b.upper = z / g + N;
      break;
    case Scheme::PP:
      // Source-process aggregation: z here is items per source process.
      b.lower = z / g;
      b.upper = z / g + N;
      break;
    case Scheme::Mesh2D:
    case Scheme::Mesh3D: {
      // Dimension-ordered routing: each item is shipped up to d times, but
      // a worker only ever holds sum(dims_k - 1) live buffers, so the
      // flush term shrinks from N to ~d * N^(1/d).
      const int d = mesh_ndims(s);
      std::uint64_t side = 1;
      auto pow_d = [d](std::uint64_t v) {
        std::uint64_t r = 1;
        for (int i = 0; i < d; ++i) r *= v;
        return r;
      };
      while (pow_d(side + 1) <= N) ++side;
      b.lower = z / g;
      b.upper = static_cast<std::uint64_t>(d) * (z / g + side);
      break;
    }
    case Scheme::None:
      b.lower = b.upper = z;
      break;
  }
  return b;
}

/// ---- Routed (mesh) buffer formula ----
/// A routed source worker keeps one buffer per off-own coordinate per
/// dimension: sum_k (dims_k - 1) buffers, plus one for same-process
/// destinations — O(d * N^(1/d)) against the direct schemes' O(N).
template <typename Dims>
std::uint64_t routed_buffers_per_core(const Dims& dims) {
  std::uint64_t total = 1;  // the same-process (local regroup) buffer
  for (const int d : dims) {
    if (d > 1) total += static_cast<std::uint64_t>(d) - 1;
  }
  return total;
}

template <typename Dims>
std::uint64_t routed_buffer_bytes_per_core(std::uint64_t g, std::uint64_t m,
                                           const Dims& dims) {
  return g * m * routed_buffers_per_core(dims);
}

}  // namespace tram::core
