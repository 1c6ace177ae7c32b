#include "core/router.hpp"

namespace tram::core {

Router::Router(VirtualMesh mesh) : mesh_(mesh) {
  int offset = 0;
  for (int k = 0; k < mesh_.ndims(); ++k) {
    offsets_[static_cast<std::size_t>(k)] = offset;
    offset += mesh_.dim_size(k);
  }

  // The per-(source, destination) table the hot paths index: correct
  // the lowest mismatched dimension first, in the slot of the target
  // coordinate; a destination in this process takes the local slot.
  const auto n = static_cast<std::size_t>(mesh_.procs());
  table_.resize(n * n);
  for (ProcId here = 0; here < mesh_.procs(); ++here) {
    for (ProcId dst = 0; dst < mesh_.procs(); ++dst) {
      Route& r = table_[static_cast<std::size_t>(here) * n +
                        static_cast<std::size_t>(dst)];
      const int k = mesh_.first_mismatch(here, dst);
      r.dim = static_cast<std::int16_t>(k);
      if (k == mesh_.ndims()) {
        r.slot = local_slot();
        r.proc = here;
      } else {
        const int c = mesh_.coord(dst, k);
        r.slot = offsets_[static_cast<std::size_t>(k)] + c;
        r.proc = mesh_.with_coord(here, k, c);
      }
    }
  }

  // A slot ships final (sorted-eligible) when no hop can follow it: the
  // local slot, and any dimension above which every extent is 1.
  final_slot_.assign(static_cast<std::size_t>(slots()), 0);
  for (int s = 0; s < slots(); ++s) {
    if (s == local_slot()) {
      final_slot_[static_cast<std::size_t>(s)] = 1;
      continue;
    }
    bool fin = true;
    for (int k = dim_of_slot(s) + 1; k < mesh_.ndims(); ++k) {
      if (mesh_.dim_size(k) > 1) fin = false;
    }
    final_slot_[static_cast<std::size_t>(s)] = fin ? 1 : 0;
  }
}

}  // namespace tram::core
