#pragma once
///
/// \file wire.hpp
/// \brief On-the-wire representation of aggregated items, and the pooled
/// buffer they are aggregated in.
///
/// Every scheme ships arrays of WireEntry<Item>. The paper's per-process
/// schemes must carry the destination worker alongside the item
/// ("<item, dest_w>" in Figs. 5-7); we carry it uniformly (WW pays 4 unused
/// bytes, far below alpha-equivalent cost). Item must be trivially
/// copyable. Applications that measure latency stamp it into their item.
///
/// EntryBuffer is the source-side aggregation buffer: entries are written
/// in place into a pooled payload slab (util::PayloadPool), so a full
/// buffer ships as a message by moving the slab handle — encode happens at
/// insert time, and no serialization or allocation remains on the ship
/// path. decode is the mirror image: rt::decode_payload views the same
/// slab bytes as entries at the destination.
///
/// WsP messages prepend a SegmentHeader: per-local-worker counts, so the
/// receiver scatters pre-grouped segments in O(t) instead of scanning g
/// items. parse_segments validates it against the entries that follow.
///
/// Routed (mesh) messages prepend a RoutedHeader instead: the mesh
/// dimension the message travelled along, its hop ordinal, and a flags
/// byte whose kPriority bit marks batches from the priority path — so
/// intermediates can validate dimension order, re-bucket urgent entries
/// into priority slots, and stats can attribute traffic per hop. The
/// entries that follow carry the *final* destination worker in
/// WireEntry::dest — intermediates never rewrite entries, they only
/// re-bucket them.
///
/// A routed message whose every entry terminates at the target process
/// (the last hop) is shipped *pre-sorted* by destination local rank and
/// marked RoutedHeader::kSortedMagic: the receiver scatters refcounted
/// sub-views per rank instead of copying (WsP's design applied to the
/// routed path). With more than one worker per process the sorted header
/// carries a SegmentHeader of per-rank counts (RoutedSortedHeader); with
/// one worker per process the grouping is trivial — a single segment — so
/// the 8-byte RoutedHeader suffices and the slab still ships in place.

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <type_traits>

#include "util/payload_pool.hpp"
#include "util/types.hpp"

namespace tram::core {

template <typename Item>
  requires std::is_trivially_copyable_v<Item>
struct WireEntry {
  /// Global id of the destination worker.
  WorkerId dest = kInvalidWorker;
  Item item{};
};

/// Fixed-size prefix of a WsP message: entry counts per destination local
/// rank. kMaxLocalWorkers bounds workers-per-process (the paper uses up to
/// 32; 64 leaves headroom).
inline constexpr int kMaxLocalWorkers = 64;

struct SegmentHeader {
  std::uint32_t counts[kMaxLocalWorkers] = {};
};

/// Fixed-size prefix of every routed (mesh) message. sizeof must stay a
/// multiple of alignof(WireEntry) (8) so the entries that follow decode
/// aligned in place.
struct RoutedHeader {
  /// Guards against a routed payload landing on a direct endpoint.
  /// kSortedMagic additionally marks the payload pre-sorted by
  /// destination local rank (every entry terminates at this process).
  std::uint32_t magic = kMagic;
  /// Mesh dimension the message was shipped along. Dimension-ordered
  /// routing corrects dimensions lowest-first, so every entry a receiver
  /// re-buckets goes to a dimension strictly greater than this.
  std::uint16_t dim = 0;
  /// Hop ordinal of this message: 1 for a ship off the source worker,
  /// 1 + max inbound hop for a ship off an intermediate (bounded by the
  /// mesh dimensionality, so 8 bits is generous).
  std::uint8_t hop = 1;
  /// kPriority flag rides here. Orthogonal to the sorted magic: a batch
  /// can be both pre-sorted and priority.
  std::uint8_t flags = 0;

  static constexpr std::uint32_t kMagic = 0x524d5348;        // "RMSH"
  static constexpr std::uint32_t kSortedMagic = 0x524d5353;  // "RMSS"
  /// The batch came off the priority path (Handle::insert_priority):
  /// intermediates re-bucket its entries into priority slots and flush
  /// them ahead of bulk, so urgency survives every hop — not just the
  /// first, which is what distinguishes routed prioritization from a
  /// one-shot expedited send.
  static constexpr std::uint8_t kPriority = 0x01;

  bool priority() const noexcept { return (flags & kPriority) != 0; }
};
static_assert(sizeof(RoutedHeader) == 8);

/// Prefix of a sorted (last-hop) routed message when the receiving process
/// has more than one worker: the per-rank counts the scatter walks. Both
/// header sizes are multiples of alignof(WireEntry) (8), so the entries
/// decode aligned in place either way.
struct RoutedSortedHeader {
  RoutedHeader base;  ///< base.magic == RoutedHeader::kSortedMagic
  SegmentHeader segments;
};
static_assert(sizeof(RoutedSortedHeader) ==
              sizeof(RoutedHeader) + sizeof(SegmentHeader));
static_assert(sizeof(RoutedSortedHeader) % 8 == 0);

/// Validated prefix of an inbound routed message.
struct RoutedWire {
  RoutedHeader hdr;
  bool sorted = false;
  /// Bytes to skip before the WireEntry array: sizeof(RoutedHeader), plus
  /// the SegmentHeader that sorted messages carry when the process runs
  /// more than one worker.
  std::size_t header_bytes = sizeof(RoutedHeader);
};

/// Parse and validate a routed message prefix. Truncation or an unknown
/// magic is wire corruption, not a recoverable condition — abort in every
/// build mode (mirrors rt::decode_payload).
inline RoutedWire parse_routed_header(std::span<const std::byte> bytes,
                                      int workers_per_proc) {
  RoutedWire w;
  if (bytes.size() < sizeof(RoutedHeader)) {
    std::fprintf(stderr, "routed message truncated (%zu bytes)\n",
                 bytes.size());
    std::abort();
  }
  std::memcpy(&w.hdr, bytes.data(), sizeof w.hdr);
  if (w.hdr.magic == RoutedHeader::kSortedMagic) {
    w.sorted = true;
    if (workers_per_proc > 1) {
      w.header_bytes = sizeof(RoutedSortedHeader);
      if (bytes.size() < sizeof(RoutedSortedHeader)) {
        std::fprintf(stderr,
                     "sorted routed message truncated (%zu bytes, "
                     "segment header expected)\n",
                     bytes.size());
        std::abort();
      }
    }
  } else if (w.hdr.magic != RoutedHeader::kMagic) {
    std::fprintf(stderr, "routed message with bad magic %x\n", w.hdr.magic);
    std::abort();
  }
  return w;
}

/// Parse and validate the SegmentHeader of a pre-sorted batch (WsP, or a
/// sorted routed last hop into a multi-worker process). `bytes` starts at
/// the header and runs to the end of the payload, entries of entry_size
/// bytes following the header. The counts of the first `ranks` local ranks
/// must cover those entries exactly: more would read past the payload,
/// fewer would drop its tail silently. Either, like a payload too short
/// for the header, is wire corruption — abort in every build mode.
inline SegmentHeader parse_segments(std::span<const std::byte> bytes,
                                    std::size_t entry_size, int ranks) {
  SegmentHeader h;
  if (bytes.size() < sizeof h) {
    std::fprintf(stderr,
                 "segmented message truncated (%zu bytes, segment header "
                 "expected)\n",
                 bytes.size());
    std::abort();
  }
  std::memcpy(&h, bytes.data(), sizeof h);
  std::uint64_t covered = 0;
  for (int r = 0; r < ranks; ++r) covered += h.counts[r];
  const std::size_t entry_bytes = bytes.size() - sizeof h;
  if (covered * entry_size != entry_bytes) {
    std::fprintf(stderr,
                 "segment counts cover %llu entries, payload carries %zu "
                 "bytes of %zu-byte entries\n",
                 static_cast<unsigned long long>(covered), entry_bytes,
                 entry_size);
    std::abort();
  }
  return h;
}

/// A worker-local aggregation buffer that encodes directly into pool
/// memory. push() lazily acquires a slab sized for the configured g; the
/// slab leaves through take() as a ready-to-send payload and the next push
/// re-acquires (which recycles a previously shipped slab in steady state).
///
/// A buffer may reserve fixed header space at the front of the slab
/// (set_header_bytes): entries encode after it, the caller stamps the
/// header just before take(), and the slab still ships by moving the
/// handle — this is how WsP and routed messages carry their headers without
/// a second allocation or copy.
template <typename Entry>
  requires std::is_trivially_copyable_v<Entry>
class EntryBuffer {
 public:
  std::uint32_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// True once this buffer has ever acquired storage (memory-footprint
  /// accounting: mirrors the one-reserve-per-destination the formulas
  /// charge, even though the slab itself cycles through the pool).
  bool ever_acquired() const noexcept { return ever_acquired_; }

  /// Reserve header space at the front of every slab this buffer acquires.
  /// Must be a multiple of alignof(Entry) (entries follow in place) and
  /// set while the buffer is empty and unacquired.
  void set_header_bytes(std::uint32_t n) {
    assert(count_ == 0 && ref_.capacity() == 0);
    assert(n % alignof(Entry) == 0);
    header_bytes_ = n;
  }

  /// The reserved header region; valid once a slab is held (size() > 0).
  std::byte* header() noexcept { return ref_.data(); }

  Entry* data() noexcept {
    return reinterpret_cast<Entry*>(ref_.data() + header_bytes_);
  }
  const Entry* data() const noexcept {
    return reinterpret_cast<const Entry*>(ref_.data() + header_bytes_);
  }
  std::span<const Entry> entries() const noexcept { return {data(), count_}; }

  /// Append one entry; acquires a pooled slab of cap_items on the first
  /// push after construction or take(). The caller ships once size()
  /// reaches cap_items, so occupancy never exceeds the acquired capacity
  /// (cap_items == 0 degenerates to ship-every-item, like the vector
  /// buffer it replaced).
  void push(const Entry& e, std::uint32_t cap_items) {
    if (ref_.capacity() == 0) {
      const std::size_t items = cap_items == 0 ? 1 : cap_items;
      ref_ = util::PayloadPool::global().acquire(header_bytes_ +
                                                 items * sizeof(Entry));
      ever_acquired_ = true;
    }
    // The vector this replaced grew on overfill; a slab cannot. A caller
    // that fails to ship at cap_items would corrupt pool memory.
    assert(header_bytes_ + (std::size_t{count_} + 1) * sizeof(Entry) <=
               ref_.capacity() &&
           "EntryBuffer overfilled: ship threshold not enforced");
    data()[count_++] = e;
  }

  /// Bulk-append a contiguous run of entries (the batched re-bucket path:
  /// one memcpy replaces n push calls). The caller must have room —
  /// append at most cap_items - size() — and ships at cap_items exactly
  /// as with push().
  void append(const Entry* src, std::uint32_t n, std::uint32_t cap_items) {
    if (n == 0) return;
    if (ref_.capacity() == 0) {
      const std::size_t items = cap_items == 0 ? 1 : cap_items;
      ref_ = util::PayloadPool::global().acquire(header_bytes_ +
                                                 items * sizeof(Entry));
      ever_acquired_ = true;
    }
    assert(header_bytes_ + (std::size_t{count_} + n) * sizeof(Entry) <=
               ref_.capacity() &&
           "EntryBuffer overfilled: run exceeds remaining capacity");
    std::memcpy(data() + count_, src, std::size_t{n} * sizeof(Entry));
    count_ += n;
  }

  /// Hand the buffer off as a message payload sized to the actual
  /// occupancy (header included), resetting this buffer.
  util::PayloadRef take() {
    ref_.resize(header_bytes_ + std::size_t{count_} * sizeof(Entry));
    count_ = 0;
    return std::move(ref_);
  }

 private:
  util::PayloadRef ref_;
  std::uint32_t count_ = 0;
  std::uint32_t header_bytes_ = 0;
  bool ever_acquired_ = false;
};

}  // namespace tram::core
