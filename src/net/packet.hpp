#pragma once
///
/// \file packet.hpp
/// \brief Wire-level message exchanged between simulated processes.
///
/// A Packet is what a comm thread hands to the Fabric: an opaque payload
/// plus routing metadata. The runtime layers its own Message envelope inside
/// the payload; the fabric only reads the routing fields. The payload is the
/// one pooled, refcounted slab the originating Message carried — crossing
/// the Message/Packet boundary moves a handle, never bytes.

#include <cstddef>
#include <cstdint>

#include "util/payload_pool.hpp"
#include "util/types.hpp"

namespace tram::net {

struct Packet {
  ProcId src_proc = 0;
  ProcId dst_proc = 0;
  /// Destination worker within dst_proc's numbering (global WorkerId);
  /// kInvalidWorker means "any worker of the process" (runtime picks).
  WorkerId dst_worker = kInvalidWorker;
  /// Originating worker (for delivery-side bookkeeping).
  WorkerId src_worker = kInvalidWorker;
  /// Runtime endpoint the payload is dispatched to on arrival.
  EndpointId endpoint = 0;
  /// Expedited packets are delivered ahead of ordinary ones by the
  /// destination comm thread (Charm++ expedited entry methods; the paper
  /// uses them to prioritize TramLib messages).
  bool expedited = false;
  /// Transport hops the content has already taken (mesh routing; see
  /// rt::Message::hops). Carried so the delivery side can keep counting.
  std::uint8_t hops = 0;
  /// Wall-clock time (ns) at which the fabric will release the packet to
  /// the destination. Filled in by Fabric::send.
  std::uint64_t arrival_ns = 0;
  /// Time the packet was handed to the fabric (for fabric-level stats).
  std::uint64_t send_ns = 0;
  util::PayloadRef payload;

  std::size_t wire_bytes() const noexcept {
    // Payload plus a fixed header charge, mirroring a real transport.
    return payload.size() + kHeaderBytes;
  }
  static constexpr std::size_t kHeaderBytes = 32;
};

/// Orders packets by release time for the destination-side reorder heap.
struct PacketLater {
  bool operator()(const Packet& a, const Packet& b) const noexcept {
    if (a.arrival_ns != b.arrival_ns) return a.arrival_ns > b.arrival_ns;
    // Expedited first among equal arrivals.
    return a.expedited < b.expedited;
  }
};

}  // namespace tram::net
