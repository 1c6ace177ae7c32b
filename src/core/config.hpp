#pragma once
///
/// \file config.hpp
/// \brief TramLib configuration (scheme, buffer size, flush policy).

#include <array>
#include <cstdint>

#include "core/scheme.hpp"

namespace tram::core {

struct TramConfig {
  Scheme scheme = Scheme::WPs;

  /// Routed schemes only (Mesh2D/Mesh3D): explicit virtual-mesh extents
  /// (`--route-dims=AxB[xC]`). All-zero means auto-factor the process
  /// count into mesh_ndims(scheme) near-balanced dimensions. When set, the
  /// product of the first mesh_ndims(scheme) entries must equal the
  /// process count.
  std::array<int, 3> route_dims{0, 0, 0};

  /// Buffer size g: items per destination buffer. A buffer is shipped as
  /// one message when it reaches g items (or on flush).
  std::uint32_t buffer_items = 1024;

  /// Flush automatically whenever the owning worker goes idle. This is what
  /// bounds item latency for irregular applications (SSSP, PDES) — without
  /// it, the tail of a stream can sit in a partially-filled buffer forever.
  /// Routed schemes require it (RoutedDomain rejects false): entries
  /// re-aggregated at an intermediate hop have no other drain path.
  bool flush_on_idle = true;

  /// Ship TramLib messages as expedited (Charm++ expedited entry methods:
  /// delivered ahead of ordinary traffic — section III-B, basic
  /// optimizations).
  bool expedited = true;

  /// Item prioritization (the paper's future-work feature): when nonzero,
  /// Handle::insert_priority routes items through a second, small set of
  /// per-worker buffers of this many items, shipped as expedited messages.
  /// Small buffers fill (and therefore ship) quickly, and expedited
  /// delivery overtakes bulk traffic at every hop, so urgent items — SSSP
  /// distance improvements under the threshold, PDES events about to
  /// become stragglers — see a fraction of the bulk path's latency.
  std::uint32_t priority_buffer_items = 0;
};

}  // namespace tram::core
