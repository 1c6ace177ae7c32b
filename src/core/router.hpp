#pragma once
///
/// \file router.hpp
/// \brief Dimension-ordered next-hop computation over a VirtualMesh.
///
/// The Router turns (here, destination process) into the single decision a
/// routed source or intermediate needs: which aggregation buffer slot the
/// entry belongs in, and which process that slot ships to. Routing is
/// dimension-ordered (correct the lowest mismatched coordinate first), so
/// it is deadlock-free in the classic k-ary mesh sense and — more
/// importantly here — every forward strictly increases the dimension
/// index, which intermediates check.
///
/// Buffer slots are laid out per dimension then per coordinate:
///
///   [dim 0: coords 0..dims_0-1][dim 1: ...][...][local]
///
/// A worker's slot for (dim k, coord c) aggregates every entry whose next
/// hop is the process at our position with digit k replaced by c. The own
/// coordinate's slot in each dimension is never used; the one extra
/// "local" slot aggregates same-process destinations so they ride the
/// same batched delivery path. Live slots are therefore
/// sum(dims_k - 1) + 1 = O(d * N^(1/d)).
///
/// The constructor flattens the whole decision into a procs x procs table
/// of Route records, so the per-entry cost on the hot insert/re-bucket
/// paths is one indexed load instead of a dimension walk of divisions.
/// The table is the only routing decision; route_test checks every entry
/// against the mesh invariants it must meet. It is quadratic in the
/// process count — fine at the simulated scales this runtime targets, and
/// each worker handle only touches its own row.

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/virtual_mesh.hpp"
#include "util/types.hpp"

namespace tram::core {

class Router {
 public:
  /// One precomputed routing decision: the aggregation slot at the
  /// looked-up source, the dimension this hop corrects (the lowest
  /// mismatched one, honoring dimension order; mesh().ndims() when the
  /// destination is the process itself), and the next-hop process.
  struct Route {
    std::int32_t slot = 0;
    std::int16_t dim = 0;
    ProcId proc = 0;
  };

  Router() = default;
  explicit Router(VirtualMesh mesh);

  const VirtualMesh& mesh() const noexcept { return mesh_; }

  /// Table-driven routing decision for an entry at `here` destined to
  /// process `dst`: one indexed load.
  const Route& route(ProcId here, ProcId dst) const noexcept {
    return table_[static_cast<std::size_t>(here) *
                      static_cast<std::size_t>(mesh_.procs()) +
                  static_cast<std::size_t>(dst)];
  }

  /// One source process's row of the table, indexed by destination
  /// process — a handle caches its own row so the per-entry decision is
  /// row[dst_proc].
  const Route* row(ProcId here) const noexcept {
    return table_.data() + static_cast<std::size_t>(here) *
                               static_cast<std::size_t>(mesh_.procs());
  }

  /// True when every entry aggregated into `slot` terminates at the
  /// slot's ship target: the local slot always, and any dimension whose
  /// higher dimensions all have extent 1 (dimension order guarantees the
  /// lower ones already match). The shipper of such a slot pre-sorts the
  /// batch by destination local rank (RoutedHeader::kSortedMagic) so the
  /// receiver scatters sub-views instead of copying, unless the scheme
  /// groups at the receiver (WPs, PP). On the 1-D mesh every slot is final.
  bool ships_final(int slot) const noexcept {
    return final_slot_[static_cast<std::size_t>(slot)] != 0;
  }

  /// Slot count per worker: sum(dims_k) + 1 (slots at a worker's own
  /// coordinates stay empty; they exist so indexing is branch-free).
  int slots() const noexcept { return local_slot() + 1; }
  int local_slot() const noexcept {
    return offsets_[static_cast<std::size_t>(mesh_.ndims() - 1)] +
           mesh_.dim_size(mesh_.ndims() - 1);
  }

  /// Process a slot's buffer ships to from `here` (the slot's coordinate
  /// substituted into here's position; local_slot ships to here itself).
  ProcId ship_target(ProcId here, int slot) const noexcept {
    if (slot == local_slot()) return here;
    const int k = dim_of_slot(slot);
    return mesh_.with_coord(here, k,
                            slot - offsets_[static_cast<std::size_t>(k)]);
  }

  /// Dimension a slot belongs to (local_slot() maps to ndims()).
  int dim_of_slot(int slot) const noexcept {
    if (slot == local_slot()) return mesh_.ndims();
    for (int k = mesh_.ndims() - 1; k >= 0; --k) {
      if (slot >= offsets_[static_cast<std::size_t>(k)]) return k;
    }
    assert(false && "dim_of_slot: negative slot");
    return mesh_.ndims();
  }

 private:
  VirtualMesh mesh_;
  std::array<int, VirtualMesh::kMaxDims> offsets_{0, 0, 0};
  /// Flat procs x procs routing table, row-major by source process.
  std::vector<Route> table_;
  /// Per-slot: every entry in the slot terminates at the ship target.
  std::vector<std::uint8_t> final_slot_;
};

}  // namespace tram::core
