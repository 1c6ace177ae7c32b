/// Microbenchmark of the grouping/sorting step (paper section III-C: the
/// destination-side grouping of a g-item buffer across t workers costs
/// O(g + t)). Compares the WPs destination-side bucket pass with a
/// source-side counting sort across g and t, and — for the routed last
/// hop and WsP — the old copy-regroup (count pass + per-rank slab +
/// scatter copy) against the sorted sub-view scatter (source sorts its
/// slab in place, receiver slices refcounted views).

#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <vector>

#include "core/grouping.hpp"
#include "core/wire.hpp"
#include "util/payload_pool.hpp"
#include "util/rng.hpp"

namespace {

using namespace tram;
using Entry = core::WireEntry<std::uint64_t>;

std::vector<Entry> make_entries(std::size_t g, int t) {
  util::Xoshiro256 rng(123);
  std::vector<Entry> entries(g);
  for (auto& e : entries) {
    e.dest = static_cast<WorkerId>(rng.below(static_cast<std::uint64_t>(t)));
    e.item = rng();
  }
  return entries;
}

/// WPs receiver: single pass bucketing into per-worker vectors.
void BM_DestinationGrouping(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const int t = static_cast<int>(state.range(1));
  const auto entries = make_entries(g, t);
  for (auto _ : state) {
    std::vector<std::vector<Entry>> groups(static_cast<std::size_t>(t));
    for (const Entry& e : entries) {
      groups[static_cast<std::size_t>(e.dest)].push_back(e);
    }
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * g));
}
BENCHMARK(BM_DestinationGrouping)
    ->Args({512, 4})->Args({1024, 4})->Args({4096, 4})
    ->Args({1024, 8})->Args({1024, 32});

/// The paper's WsP source grouping as a two-pass counting sort into a
/// fresh array (no per-bucket allocation), against the destination-side
/// pass above. The library sorts in place instead; see
/// BM_LastHopSubviewScatter.
void BM_SourceCountingSort(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const int t = static_cast<int>(state.range(1));
  const auto entries = make_entries(g, t);
  for (auto _ : state) {
    std::uint32_t counts[core::kMaxLocalWorkers] = {};
    for (const Entry& e : entries) counts[e.dest]++;
    std::uint32_t offsets[core::kMaxLocalWorkers];
    std::uint32_t acc = 0;
    for (int r = 0; r < t; ++r) {
      offsets[r] = acc;
      acc += counts[r];
    }
    std::vector<Entry> sorted(entries.size());
    for (const Entry& e : entries) sorted[offsets[e.dest]++] = e;
    benchmark::DoNotOptimize(sorted);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * g));
}
BENCHMARK(BM_SourceCountingSort)
    ->Args({512, 4})->Args({1024, 4})->Args({4096, 4})
    ->Args({1024, 8})->Args({1024, 32});

/// Routed last hop, before: the receiving process count-passes the
/// unsorted batch, acquires a fresh pool slab per destination rank, and
/// scatter-copies every entry into it.
void BM_LastHopCopyRegroup(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const int t = static_cast<int>(state.range(1));
  const auto entries = make_entries(g, t);
  for (auto _ : state) {
    std::uint32_t counts[core::kMaxLocalWorkers] = {};
    for (const Entry& e : entries) counts[e.dest]++;
    std::array<util::PayloadRef, core::kMaxLocalWorkers> refs;
    std::array<Entry*, core::kMaxLocalWorkers> cursor{};
    for (int r = 0; r < t; ++r) {
      if (counts[r] == 0) continue;
      refs[static_cast<std::size_t>(r)] =
          util::PayloadPool::global().acquire(counts[r] * sizeof(Entry));
      cursor[static_cast<std::size_t>(r)] = reinterpret_cast<Entry*>(
          refs[static_cast<std::size_t>(r)].data());
    }
    for (const Entry& e : entries) {
      *cursor[static_cast<std::size_t>(e.dest)]++ = e;
    }
    benchmark::DoNotOptimize(refs);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * g));
}
BENCHMARK(BM_LastHopCopyRegroup)
    ->Args({512, 4})->Args({1024, 4})->Args({4096, 4})
    ->Args({1024, 8})->Args({1024, 32});

/// Routed last hop (and WsP), after: the shipper permutes its own slab in
/// place behind a RoutedSortedHeader (core/grouping.hpp — the ship-side
/// cost), and the receiver walks the segment counts slicing a refcounted
/// sub-view per rank (the whole receive-side cost: no copy, no per-rank
/// allocation). Refilling the slab with unsorted entries stands in for
/// the inserts and is not timed.
void BM_LastHopSubviewScatter(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  const int t = static_cast<int>(state.range(1));
  const auto entries = make_entries(g, t);
  core::RoutedSortedHeader hdr;
  hdr.base.magic = core::RoutedHeader::kSortedMagic;
  for (auto _ : state) {
    state.PauseTiming();
    util::PayloadRef slab = util::PayloadPool::global().acquire(
        sizeof hdr + g * sizeof(Entry));
    auto* data = reinterpret_cast<Entry*>(slab.data() + sizeof hdr);
    std::memcpy(data, entries.data(), g * sizeof(Entry));
    hdr.segments = core::SegmentHeader{};
    state.ResumeTiming();
    core::permute_sort_segments(
        data, g, t, [](WorkerId w) { return w; }, hdr.segments);
    std::memcpy(slab.data(), &hdr, sizeof hdr);
    std::array<util::PayloadRef, core::kMaxLocalWorkers> views;
    std::size_t offset = sizeof hdr;
    for (int r = 0; r < t; ++r) {
      const std::size_t bytes = hdr.segments.counts[r] * sizeof(Entry);
      if (bytes == 0) continue;
      views[static_cast<std::size_t>(r)] = slab.subref(offset, bytes);
      offset += bytes;
    }
    benchmark::DoNotOptimize(views);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * g));
}
BENCHMARK(BM_LastHopSubviewScatter)
    ->Args({512, 4})->Args({1024, 4})->Args({4096, 4})
    ->Args({1024, 8})->Args({1024, 32});

}  // namespace
