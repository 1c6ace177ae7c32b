#pragma once
///
/// \file virtual_mesh.hpp
/// \brief Virtual k-ary mesh over the machine's processes.
///
/// Topological routing (the TRAM line of work) stops paying one buffer per
/// destination process: the N processes are factored into a d-dimensional
/// virtual mesh (d = 2 or 3 for Mesh2D/Mesh3D) and every process is a
/// point in mixed radix — dimension 0 is the fastest-varying digit. A
/// message corrects one coordinate per hop, so a source only ever
/// aggregates toward the sum(dims_k - 1) processes that differ from it in
/// exactly one coordinate: O(d * N^(1/d)) live buffers instead of O(N).
/// The paper's per-process schemes, WPs and WsP, are the d = 1 case: one
/// hop, one buffer per destination process.
///
/// The mesh is *virtual*: it does not have to match the physical
/// interconnect. Extents come from --route-dims=AxB[xC] or are
/// auto-factored as near-balanced as the process count allows (a prime N
/// degenerates to 1 x N, which routes exactly like the 1-D mesh).

#include <array>
#include <span>
#include <string>

#include "util/types.hpp"

namespace tram::core {

class VirtualMesh {
 public:
  static constexpr int kMaxDims = 3;

  VirtualMesh() = default;

  /// A mesh of the given extents; their product must equal procs (throws
  /// std::invalid_argument otherwise). Extents of 1 are allowed and
  /// contribute nothing (that dimension never mismatches).
  VirtualMesh(int procs, std::span<const int> dims);

  /// Factor procs into ndims near-balanced extents, largest last (so the
  /// cheapest, most-aggregated dimension is corrected first).
  static VirtualMesh auto_factor(int procs, int ndims);

  int ndims() const noexcept { return ndims_; }
  int procs() const noexcept { return procs_; }
  int dim_size(int k) const noexcept { return dims_[static_cast<std::size_t>(k)]; }
  std::span<const int> dims() const noexcept {
    return {dims_.data(), static_cast<std::size_t>(ndims_)};
  }

  /// Coordinate of process p along dimension k (mixed-radix digit).
  int coord(ProcId p, int k) const noexcept {
    return (p / strides_[static_cast<std::size_t>(k)]) %
           dims_[static_cast<std::size_t>(k)];
  }

  /// Process at p's position with the dimension-k digit replaced by c.
  ProcId with_coord(ProcId p, int k, int c) const noexcept {
    const int stride = strides_[static_cast<std::size_t>(k)];
    return p + (c - coord(p, k)) * stride;
  }

  /// Lowest dimension in which a and b differ, or ndims() when equal
  /// (dimension-ordered routing corrects this dimension next).
  int first_mismatch(ProcId a, ProcId b) const noexcept {
    for (int k = 0; k < ndims_; ++k) {
      if (coord(a, k) != coord(b, k)) return k;
    }
    return ndims_;
  }

  /// Number of hops a message takes from a to b: the count of mismatched
  /// coordinates (0 when a == b).
  int hops(ProcId a, ProcId b) const noexcept {
    int n = 0;
    for (int k = 0; k < ndims_; ++k) {
      if (coord(a, k) != coord(b, k)) ++n;
    }
    return n;
  }

  /// "8x8" / "4x4x4" — bench table headers and JSON reports.
  std::string to_string() const;

  bool operator==(const VirtualMesh&) const = default;

 private:
  int procs_ = 1;
  int ndims_ = 0;
  std::array<int, kMaxDims> dims_{1, 1, 1};
  std::array<int, kMaxDims> strides_{1, 1, 1};
};

}  // namespace tram::core
