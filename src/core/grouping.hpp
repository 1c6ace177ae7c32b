#pragma once
///
/// \file grouping.hpp
/// \brief Destination-rank sort shared by every pre-sorted ship path.
///
/// The paper's WsP scheme moves the destination-side grouping cost to the
/// source: grouping the outgoing entries by destination local rank behind
/// a SegmentHeader of per-rank counts lets the receiver scatter refcounted
/// sub-views in O(t) instead of scanning g entries. The same sort serves
/// the routed schemes' last hop (src/route/): the shipper of a
/// final-dimension buffer knows every entry terminates at the target
/// process, so it can pre-group exactly like a WsP source. Both ship the
/// buffer's own slab, sorted in place, by moving the handle.

#include <cstddef>

#include "core/wire.hpp"
#include "util/types.hpp"

namespace tram::core {

/// Permute `data` into rank-grouped order (american-flag counting sort)
/// and fill `header.counts` for the receiver's segment walk. `rank_of`
/// maps a WireEntry destination worker to its local rank in [0, t). A
/// single-worker process degenerates to one segment and no moves. O(n)
/// swaps: every swap retires one element into its final segment.
template <typename Entry, typename RankFn>
void permute_sort_segments(Entry* data, std::size_t n, int t,
                           RankFn&& rank_of, SegmentHeader& header) {
  if (t == 1) {
    header.counts[0] = static_cast<std::uint32_t>(n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    header.counts[rank_of(data[i].dest)]++;
  }
  // next[r] = first unplaced position of segment r; end[r] = one past it.
  std::uint32_t next[kMaxLocalWorkers];
  std::uint32_t end[kMaxLocalWorkers];
  std::uint32_t acc = 0;
  for (int r = 0; r < t; ++r) {
    next[r] = acc;
    acc += header.counts[r];
    end[r] = acc;
  }
  for (int r = 0; r < t; ++r) {
    while (next[r] < end[r]) {
      const int b = rank_of(data[next[r]].dest);
      if (b == r) {
        ++next[r];
      } else {
        Entry tmp = data[next[r]];
        data[next[r]] = data[next[b]];
        data[next[b]] = tmp;
        ++next[b];
      }
    }
  }
}

}  // namespace tram::core
