#pragma once
///
/// \file grouping.hpp
/// \brief Destination-rank grouping: the sort every pre-sorted ship path
/// shares, and the scatter every receiving process shares.
///
/// The paper's WsP scheme moves the destination-side grouping cost to the
/// source: grouping the outgoing entries by destination local rank behind
/// a SegmentHeader of per-rank counts lets the receiver scatter refcounted
/// sub-views in O(t) instead of scanning g entries. The same sort serves
/// the routed schemes' last hop (src/route/): the shipper of a
/// final-dimension buffer knows every entry terminates at the target
/// process, so it can pre-group exactly like a WsP source. Both ship the
/// buffer's own slab, sorted in place, by moving the handle.
///
/// FinalHop is the other half: how a batch that ends at a process reaches
/// its workers. Whoever grouped the batch (a WsP source, a routed last-hop
/// shipper, or the receiver itself for WPs/PP and routed finals, into one
/// scratch slab), the receiving worker delivers its own run in place and
/// ships each sibling's run as a refcounted sub-view of the same slab.

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>

#include "core/scheme.hpp"
#include "core/tram_stats.hpp"
#include "core/wire.hpp"
#include "runtime/message.hpp"
#include "runtime/worker.hpp"
#include "util/payload_pool.hpp"
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

/// The destination half of both domains (core::TramDomain and
/// route::RoutedDomain): final delivery on a worker, and the scatter of a
/// rank-grouped batch across the workers of its process.
template <typename Item>
struct FinalHop {
  using Entry = WireEntry<Item>;

  /// Runs on the destination worker's thread for every delivered item.
  std::function<void(rt::Worker&, const Item&)> deliver;
  /// Named in the misroute abort.
  Scheme scheme = Scheme::None;
  /// Workers per process: the runs a batch for the process splits into.
  int ranks = 1;
  /// The endpoint whose messages are a batch for one worker; the domain
  /// registers it to call deliver_batch.
  EndpointId endpoint = -1;

  /// Deliver a batch that ends at worker `w`. An entry addressed to
  /// another worker is a routing bug: abort in every build mode.
  void deliver_batch(rt::Worker& w, std::span<const Entry> entries,
                     WorkerTramStats& stats) const {
    for (const Entry& e : entries) {
      if (e.dest != w.id()) {
        std::fprintf(stderr,
                     "TRAM misroute: entry dest=%d delivered on worker=%d "
                     "(scheme=%s)\n",
                     e.dest, w.id(), to_string(scheme));
        std::abort();
      }
      ++stats.items_delivered;
      deliver(w, e.item);
    }
  }

  /// Hand the entries of `slab` from byte `offset` on to the workers of
  /// `w`'s process: they lie grouped in runs by destination local rank,
  /// counts[r] entries for each rank r < ranks. `w` delivers its own run
  /// in place; each sibling's run ships to `endpoint` as a refcounted
  /// sub-view of the slab, which recycles once the last run is handled.
  /// Returns the number of non-empty runs.
  std::uint32_t scatter_runs(rt::Worker& w, const util::PayloadRef& slab,
                             std::size_t offset, const std::uint32_t* counts,
                             bool expedited, WorkerTramStats& stats) const {
    const auto entries = rt::decode_payload<Entry>(slab.span().subspan(offset));
    // Workers are numbered process-major (util::Topology::worker_at).
    const WorkerId first = w.id() - w.local_rank();
    std::uint32_t runs = 0;
    std::size_t at = 0;
    for (int r = 0; r < ranks; ++r) {
      const std::uint32_t n = counts[r];
      if (n == 0) continue;
      ++runs;
      if (r == w.local_rank()) {
        deliver_batch(w, entries.subspan(at, n), stats);
      } else {
        rt::Message m;
        m.endpoint = endpoint;
        m.dst_worker = first + r;
        m.src_worker = w.id();
        m.expedited = expedited;
        m.payload = slab.subref(offset + at * sizeof(Entry), n * sizeof(Entry));
        ++stats.regroup_msgs;
        w.send(std::move(m));
      }
      at += n;
    }
    return runs;
  }
};

}  // namespace tram::core
