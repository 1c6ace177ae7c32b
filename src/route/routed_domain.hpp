#pragma once
///
/// \file routed_domain.hpp
/// \brief Multi-hop aggregation over a virtual mesh (Scheme::Mesh2D/3D).
///
/// RoutedDomain is the topological-routing sibling of core::TramDomain,
/// sharing its wire format, pooled EntryBuffers, stats, delivery contract
/// and final-hop scatter (core::FinalHop), but replacing the direct
/// one-buffer-per-destination-process layout with one buffer per mesh
/// coordinate per dimension. The message lifecycle gains an intermediate
/// stage:
///
///   insert -> hop-encode (one load of the Router's precomputed table)
///          -> ship (slab handle moves, RoutedHeader stamped in place;
///             a last-hop buffer ships pre-sorted by destination local
///             rank under RoutedHeader::kSortedMagic — sorted *in place*
///             by permutation, never copied into a fresh slab)
///          -> re-aggregate (intermediate classifies the batch once and
///             copies each forwarded entry once, straight into the
///             buffer of its next-hop slot)
///          -> ship -> ... -> deliver (final process scatters refcounted
///             sub-views per rank instead of copying)
///
/// Every slot ships at cap entries, so a routed message carries at most
/// one buffer's worth of entries (the paper's g) as one slab, and a
/// forwarded entry is copied exactly once per hop.
///
/// Every wire record carries its final destination worker
/// (WireEntry::dest), so intermediates never rewrite entries — they only
/// move them between buffers. Quiescence is safe across hops because a
/// re-bucketed entry raises this worker's pending counter before the
/// inbound message counts as handled, and flush-on-idle drains
/// intermediate buffers exactly like source buffers.
///
/// The payoff (and the reason this subsystem exists): a source worker's
/// live buffers shrink from the direct schemes' O(N) to
/// sum(dims_k - 1) + 1 = O(d * N^(1/d)), so per-buffer fill — and with it
/// message occupancy — stops degrading as the process count grows. The
/// price is up to d transport hops per item; the routed stats counters
/// (routed_hop_msgs / routed_forward_msgs / routed_forwarded_items) make
/// that trade measurable.
///
/// Hop accounting under a lossy fabric (cfg.fault, src/fault/): the
/// multi-hop path multiplies the state in flight — every intermediate
/// holds live buffers a direct scheme never had — but the domain itself
/// needs no loss-awareness. The reliability layer below dedups
/// retransmitted hop batches before they reach on_routed (a replayed
/// batch would otherwise re-bucket its entries twice and double-deliver),
/// and its unacked count extends quiescence detection, so a dropped hop
/// message keeps pending_/QD honest until its retransmit lands. Worker
/// stats here (routed_hop_msgs, routed_forwarded_items, ...) count each
/// ship once at ship time; transport-level retransmits appear only in
/// fabric message totals and core::FaultStats.
///
/// Urgent items (insert_priority, cfg.priority_buffer_items > 0) ride a
/// second lane of the same per-dimension slots, sized to the small
/// priority buffer and shipped expedited with the RoutedHeader::kPriority
/// bit set: intermediates re-bucket them into their own priority lane and
/// flush it ahead of bulk, so priority traffic overtakes bulk at every hop
/// of the route — the property the latency-sensitive irregular apps (SSSP
/// threshold updates) depend on.

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"
#include "core/grouping.hpp"
#include "core/tram_stats.hpp"
#include "core/wire.hpp"
#include "route/router.hpp"
#include "route/virtual_mesh.hpp"
#include "runtime/machine.hpp"
#include "runtime/message.hpp"
#include "runtime/worker.hpp"
#include "trace/trace.hpp"
#include "util/payload_pool.hpp"

namespace tram::route {

template <typename Item>
  requires std::is_trivially_copyable_v<Item>
class RoutedDomain {
 public:
  using Entry = core::WireEntry<Item>;
  /// Runs on the destination worker's thread for every delivered item.
  using DeliverFn = std::function<void(rt::Worker&, const Item&)>;

  class Handle;

  RoutedDomain(rt::Machine& machine, core::TramConfig cfg, DeliverFn deliver)
      : machine_(machine),
        cfg_(cfg),
        finals_{std::move(deliver), cfg.scheme,
                machine.topology().workers_per_proc()},
        topo_(machine.topology()),
        router_(make_mesh(topo_.procs(), cfg)) {
    if (topo_.workers_per_proc() > core::kMaxLocalWorkers) {
      throw std::invalid_argument(
          "RoutedDomain: workers_per_proc exceeds kMaxLocalWorkers");
    }
    // Multi-hop routing makes idle flushing a correctness requirement,
    // not a latency knob: entries re-aggregated at an intermediate after
    // the application mains returned can only leave through the idle
    // hook. A config that disables it would hang quiescence forever on
    // the first partial intermediate buffer, so reject it loudly.
    if (!cfg_.flush_on_idle) {
      throw std::invalid_argument(
          "RoutedDomain: flush_on_idle=false would strand intermediate-hop "
          "buffers (multi-hop routing requires idle flushing)");
    }
    register_endpoints();
    handles_.reserve(static_cast<std::size_t>(topo_.workers()));
    for (WorkerId w = 0; w < topo_.workers(); ++w) {
      handles_.push_back(
          std::unique_ptr<Handle>(new Handle(*this, machine.worker(w))));
    }
    install_hooks();
  }

  RoutedDomain(const RoutedDomain&) = delete;
  RoutedDomain& operator=(const RoutedDomain&) = delete;

  /// This worker's aggregation handle.
  Handle& on(rt::Worker& w) {
    return *handles_[static_cast<std::size_t>(w.id())];
  }
  Handle& handle(WorkerId w) { return *handles_[static_cast<std::size_t>(w)]; }

  const core::TramConfig& config() const noexcept { return cfg_; }
  const VirtualMesh& mesh() const noexcept { return router_.mesh(); }
  const Router& router() const noexcept { return router_; }
  rt::Machine& machine() noexcept { return machine_; }

  /// Merged stats across all workers (call after machine.run returns).
  core::WorkerTramStats aggregate_stats() const {
    core::WorkerTramStats total;
    for (const auto& h : handles_) total.merge(h->stats_);
    return total;
  }

  /// Largest number of distinct aggregation buffers any single worker ever
  /// populated — the live-buffer count the mesh bounds by
  /// sum(dims_k - 1) + 1 (compare TramDomain, where the same metric grows
  /// to the destination-process count).
  std::uint64_t max_reserved_buffers() const {
    std::uint64_t m = 0;
    for (const auto& h : handles_) {
      if (h->reserved_buffers_ > m) m = h->reserved_buffers_;
    }
    return m;
  }

  /// Actual bytes reserved in aggregation buffers, machine-wide (same
  /// charge model as TramDomain::allocated_buffer_bytes).
  std::uint64_t allocated_buffer_bytes() const {
    std::uint64_t total = 0;
    for (const auto& h : handles_) {
      total += h->reserved_buffers_ *
               (sizeof(core::RoutedHeader) +
                std::uint64_t{cfg_.buffer_items} * sizeof(Entry));
    }
    return total;
  }

  /// Zero all counters between benchmark trials (machine must be idle).
  void reset_stats() {
    for (auto& h : handles_) h->stats_ = core::WorkerTramStats{};
  }

 private:
  friend class Handle;

  static VirtualMesh make_mesh(int procs, const core::TramConfig& cfg) {
    const int d = core::mesh_ndims(cfg.scheme);
    if (d == 0) {
      throw std::invalid_argument(
          "RoutedDomain: scheme is not routed (use TramDomain)");
    }
    if (cfg.route_dims[0] != 0) {
      // Extents beyond the scheme's dimensionality are a mismatched
      // --scheme/--route-dims pair; truncating would silently run the
      // wrong topology.
      for (std::size_t k = static_cast<std::size_t>(d);
           k < cfg.route_dims.size(); ++k) {
        if (cfg.route_dims[k] != 0) {
          throw std::invalid_argument(
              "RoutedDomain: route_dims has more extents than the scheme "
              "has mesh dimensions");
        }
      }
      return VirtualMesh(procs, std::span<const int>(cfg.route_dims.data(),
                                                     static_cast<std::size_t>(d)));
    }
    return VirtualMesh::auto_factor(procs, d);
  }

  void register_endpoints() {
    // Hop delivery: a routed batch (header + entries) lands on some worker
    // of the hop process, which delivers finals and re-buckets the rest.
    ep_routed_ = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          handle(w.id()).on_routed(w, m);
        });
    // Final-hop delivery: a batch addressed to one specific worker.
    finals_.endpoint = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          finals_.deliver_batch(w, rt::decode_payload<Entry>(m),
                                handle(w.id()).stats_);
        });
  }

  void install_hooks() {
    for (WorkerId w = 0; w < topo_.workers(); ++w) {
      Handle* h = handles_[static_cast<std::size_t>(w)].get();
      rt::Worker& worker = machine_.worker(w);
      worker.add_pending_counter([h] {
        return h->pending_.load(std::memory_order_acquire);
      });
      // Unconditional (the constructor rejected flush_on_idle=false):
      // intermediate buffers drain through this hook.
      worker.add_idle_hook([h](rt::Worker&) { h->flush_all(); });
    }
  }

  rt::Machine& machine_;
  core::TramConfig cfg_;
  core::FinalHop<Item> finals_;
  util::Topology topo_;
  Router router_;
  EndpointId ep_routed_ = -1;
  std::vector<std::unique_ptr<Handle>> handles_;

 public:
  /// Per-worker routing endpoint. Obtain via RoutedDomain::on(worker);
  /// insert/flush_all must be called from the owning worker's thread.
  class Handle {
   public:
    /// Aggregate one item toward the given destination worker; it will
    /// arrive after up to mesh().ndims() hops.
    void insert(WorkerId dest, const Item& item) {
      ++stats_.items_inserted;
      push_entry(bulk_, Entry{dest, item});
    }

    /// Aggregate an urgent item (the paper's future-work prioritization,
    /// over the mesh). Rides a second lane of per-dimension buffer slots
    /// sized cfg.priority_buffer_items: small buffers fill (and ship)
    /// quickly, the messages are expedited, and the RoutedHeader carries
    /// a priority bit so every intermediate re-buckets the entries into
    /// its own priority slots and flushes them ahead of bulk — urgent
    /// items overtake bulk traffic at every hop, not just the first.
    /// Falls back to insert() when priority buffering is not configured.
    void insert_priority(WorkerId dest, const Item& item) {
      if (pri_.slots.empty()) {
        insert(dest, item);
        return;
      }
      ++stats_.items_inserted;
      ++stats_.priority_items;
      push_entry(pri_, Entry{dest, item});
    }

    /// Ship every partially filled buffer ("flush accumulated items").
    /// Idle workers call this automatically when flush_on_idle is set;
    /// intermediate buffers drain the same way. Priority slots flush
    /// first so urgent stragglers leave ahead of bulk at this hop too.
    void flush_all() {
      const std::uint64_t shipped0 = stats_.msgs_shipped;
      for (Lane* lane : {&pri_, &bulk_}) {
        for (std::size_t s = 0; s < lane->slots.size(); ++s) {
          ship_slot(*lane, static_cast<int>(s), /*from_flush=*/true);
        }
      }
      if (stats_.msgs_shipped > shipped0) {
        trace::instant(trace::Cat::kRoute, trace::kFlushIdle,
                       stats_.msgs_shipped - shipped0);
      }
    }

    const core::WorkerTramStats& stats() const noexcept { return stats_; }
    /// Items currently buffered at this worker (source or intermediate).
    std::uint64_t pending() const noexcept {
      return pending_.load(std::memory_order_acquire);
    }

   private:
    friend class RoutedDomain;

    /// One buffer per mesh coordinate per dimension, indexed by the
    /// Router's slot number.
    struct Slot {
      core::EntryBuffer<Entry> buf;
      /// Pending hop ordinal: max over the entries currently in the slot
      /// of the hop their next ship will be.
      std::uint8_t hop = 0;
    };
    /// Bulk or priority traffic: the same slot layout, so one Route record
    /// indexes both, with the lane's own capacity. Priority slots ship
    /// expedited with the RoutedHeader::kPriority bit set.
    struct Lane {
      std::vector<Slot> slots;
      std::uint32_t cap = 1;
      bool pri = false;
    };

    Handle(RoutedDomain& d, rt::Worker& self)
        : domain_(&d),
          self_(&self),
          self_proc_(d.topo_.proc_of_worker(self.id())),
          wpp_(d.topo_.workers_per_proc()),
          row_(d.router_.row(d.topo_.proc_of_worker(self.id()))) {
      const auto nslots = static_cast<std::size_t>(d.router_.slots());
      bulk_ = Lane{std::vector<Slot>(nslots),
                   std::max<std::uint32_t>(1, d.cfg_.buffer_items), false};
      if (d.cfg_.priority_buffer_items > 0) {
        pri_ = Lane{std::vector<Slot>(nslots), d.cfg_.priority_buffer_items,
                    true};
      }
      // A final-dimension slot with several local workers ships in-place
      // permuted behind the wide sorted header, so its slab reserves the
      // wide header up front; everything else carries the 8-byte header.
      for (Lane* lane : {&bulk_, &pri_}) {
        for (std::size_t s = 0; s < lane->slots.size(); ++s) {
          lane->slots[s].buf.set_header_bytes(
              sorted_slot(static_cast<int>(s))
                  ? sizeof(core::RoutedSortedHeader)
                  : sizeof(core::RoutedHeader));
        }
      }
    }

    /// A slot whose ship is the in-place permuted sorted form (final
    /// dimension, nontrivial local grouping): its slab reserves the wide
    /// sorted header and is rank-permuted at ship time.
    bool sorted_slot(int slot) const noexcept {
      return domain_->router_.ships_final(slot) && wpp_ > 1;
    }

    /// workers_per_proc == 1 (non-SMP) is the common bench shape; skip
    /// the integer division on the per-entry paths.
    ProcId proc_of(WorkerId w) const noexcept {
      return wpp_ == 1 ? w : w / wpp_;
    }
    LocalWorkerId rank_of(WorkerId w) const noexcept {
      return wpp_ == 1 ? 0 : w % wpp_;
    }

    /// Bucket a source entry into its route's slot of `lane`; ship on
    /// fill. Its next ship is hop 1.
    void push_entry(Lane& lane, const Entry& e) {
      const int slot = row_[proc_of(e.dest)].slot;
      Slot& sl = lane.slots[static_cast<std::size_t>(slot)];
      note_slot_used(lane, static_cast<std::size_t>(slot));
      sl.buf.push(e, lane.cap);
      if (sl.hop == 0) sl.hop = 1;
      pending_.fetch_add(1, std::memory_order_release);
      if (sl.buf.size() >= lane.cap) {
        ship_slot(lane, slot, /*from_flush=*/false);
      }
    }

    /// Priority slots stay out of the live-buffer metric (mirrors
    /// TramDomain: the bound being measured is the bulk footprint the
    /// section III-C formulas charge). Called before the slot's first
    /// push, so a slot that has never acquired a slab is new.
    void note_slot_used(const Lane& lane, std::size_t s) {
      if (lane.pri || lane.slots[s].buf.ever_acquired()) return;
      ++reserved_buffers_;
      // Every increment IS a new high-water mark (the count never drops
      // within a run) — the trace shows when the footprint grew.
      trace::instant(trace::Cat::kRoute, trace::kBufferHighWater,
                     reserved_buffers_, static_cast<std::uint32_t>(s));
    }

    /// Ship a slot's buffer to its next-hop process by moving its slab
    /// handle — ship copies nothing. A sorted_slot() permutes its own slab
    /// by destination local rank behind a RoutedSortedHeader first; every
    /// other slot ships behind the plain RoutedHeader.
    void ship_slot(Lane& lane, int slot, bool from_flush) {
      auto& d = *domain_;
      const auto s = static_cast<std::size_t>(slot);
      Slot& sl = lane.slots[s];
      const std::size_t n = sl.buf.size();
      if (n == 0) return;
      const bool pri = lane.pri;
      const std::uint8_t hop = sl.hop;
      const bool sorted = d.router_.ships_final(slot);

      core::RoutedHeader hdr;
      hdr.magic = sorted ? core::RoutedHeader::kSortedMagic
                         : core::RoutedHeader::kMagic;
      hdr.dim = static_cast<std::uint16_t>(d.router_.dim_of_slot(slot));
      hdr.hop = hop;
      hdr.flags = pri ? core::RoutedHeader::kPriority : 0;

      rt::Message m;
      m.endpoint = d.ep_routed_;
      m.src_worker = self_->id();
      // Priority batches are always expedited, whatever the bulk policy:
      // expedited dispatch is what lets them overtake bulk in every
      // inbox along the route.
      m.expedited = pri || d.cfg_.expedited;
      m.hops = static_cast<std::uint8_t>(hop - 1);

      if (sorted_slot(slot)) {
        // Permute the slot's own slab into rank-grouped order; the wide
        // header space was reserved at construction.
        core::RoutedSortedHeader shdr;
        shdr.base = hdr;
        core::permute_sort_segments(
            sl.buf.data(), n, wpp_,
            [this](WorkerId dw) { return rank_of(dw); }, shdr.segments);
        std::memcpy(sl.buf.header(), &shdr, sizeof shdr);
      } else {
        std::memcpy(sl.buf.header(), &hdr, sizeof hdr);
      }
      m.payload = sl.buf.take();

      ++stats_.msgs_shipped;
      ++stats_.routed_hop_msgs;
      if (pri) ++stats_.priority_msgs;
      if (sorted) ++stats_.routed_sorted_msgs;
      if (hop > 1) ++stats_.routed_forward_msgs;
      if (from_flush) ++stats_.flush_msgs;
      stats_.occupancy_at_ship.add(static_cast<double>(n));
      sl.hop = 0;
      // a1 packs the slot with what kind of ship this was: bit 16 pri,
      // 17 flush, 18 sorted fast path; hop in bits 24+.
      trace::instant(trace::Cat::kRoute, trace::kShip, n,
                     static_cast<std::uint32_t>(s) |
                         (pri ? 1u << 16 : 0) | (from_flush ? 1u << 17 : 0) |
                         (sorted ? 1u << 18 : 0) |
                         (static_cast<std::uint32_t>(hop) << 24));

      self_->send_to_proc(d.router_.ship_target(self_proc_, slot),
                          std::move(m));
      pending_.fetch_sub(n, std::memory_order_release);
    }

    /// A routed batch arrived at this process: a pre-sorted last-hop
    /// batch scatters as refcounted sub-views; an unsorted hop batch is
    /// classified once and re-bucketed.
    void on_routed(rt::Worker& w, const rt::Message& msg) {
      const std::span<const std::byte> bytes = msg.payload.span();
      const core::RoutedWire wire = core::parse_routed_header(bytes, wpp_);
      const auto entries =
          rt::decode_payload<Entry>(bytes.subspan(wire.header_bytes));
      if (wire.sorted) {
        // Every entry ends here, grouped by local rank: as the segment
        // counts say, or as one run at one worker per process.
        core::SegmentHeader seg;
        if (wpp_ == 1) {
          seg.counts[0] = static_cast<std::uint32_t>(entries.size());
        } else {
          seg = core::parse_segments(
              bytes.subspan(sizeof(core::RoutedHeader)), sizeof(Entry), wpp_);
        }
        scatter(w, msg.payload, wire.header_bytes, seg.counts,
                wire.hdr.priority());
        trace::instant(trace::Cat::kRoute, trace::kScatterSorted,
                       entries.size());
      } else {
        const std::uint64_t t0 = trace::maybe_now();
        rebucket_message(w, wire, msg, entries);
        trace::complete(trace::Cat::kRoute, trace::kRebucket, t0,
                        entries.size(), wire.hdr.hop);
      }
    }

    /// Hand this process's workers a rank-grouped batch of finals (see
    /// core::FinalHop::scatter_runs); every run counts as a sub-view
    /// delivery, whether delivered in place or regrouped.
    void scatter(rt::Worker& w, const util::PayloadRef& slab,
                 std::size_t offset, const std::uint32_t* counts, bool pri) {
      auto& d = *domain_;
      stats_.routed_subview_deliveries += d.finals_.scatter_runs(
          w, slab, offset, counts, pri || d.cfg_.expedited, stats_);
    }

    /// Unsorted hop message: classify every entry by (final local rank |
    /// next-hop slot) in ONE pass, then move each entry once. A batch
    /// whose entries are all finals for one local rank never copies: it
    /// is delivered in place or regrouped as one sub-view of the inbound
    /// slab. Otherwise every entry pays exactly one copy, aimed at its
    /// final resting place: forwards push straight into their next-hop
    /// slot's buffer (which ships one slab at cap entries), and finals
    /// scatter into a scratch slab sized to just them, grouped by local
    /// rank, so each other rank's regroup ships as a refcounted sub-view.
    void rebucket_message(rt::Worker& w, const core::RoutedWire& wire,
                          const rt::Message& msg,
                          std::span<const Entry> entries) {
      const core::RoutedHeader& hdr = wire.hdr;
      Lane& lane = hdr.priority() ? pri_ : bulk_;
      const bool pri = lane.pri;
      const auto next_ord = static_cast<std::uint8_t>(hdr.hop + 1);
      const std::size_t nbuckets =
          static_cast<std::size_t>(wpp_) + lane.slots.size();
      const std::size_t total = entries.size();
      if (total == 0) return;

      // Pass 1: bucket counts and the per-entry bucket index — finals
      // bucket to their local rank, forwards to wpp_ + next-hop slot (one
      // table load each).
      bucket_counts_.assign(nbuckets, 0);
      bucket_cursor_.resize(total);
      for (std::size_t i = 0; i < total; ++i) {
        const Entry& e = entries[i];
        const ProcId dst_proc = proc_of(e.dest);
        std::uint32_t b;
        if (dst_proc == self_proc_) {
          b = static_cast<std::uint32_t>(rank_of(e.dest));
        } else {
          const Router::Route& r = row_[dst_proc];
          // Dimension-ordered: the hop that carried this entry here
          // matched its coordinate in hdr.dim, so the next mismatch is
          // strictly higher — a cycle would mean wire corruption.
          assert(r.dim > static_cast<std::int16_t>(hdr.dim) &&
                 "routed entry does not advance dimension order");
          b = static_cast<std::uint32_t>(wpp_) +
              static_cast<std::uint32_t>(r.slot);
        }
        bucket_cursor_[i] = b;
        bucket_counts_[b]++;
      }

      // Every entry final for one local rank: the batch moves whole.
      const std::uint32_t only = bucket_cursor_[0];
      if (only < static_cast<std::uint32_t>(wpp_) &&
          bucket_counts_[only] == total) {
        scatter(w, msg.payload, wire.header_bytes, bucket_counts_.data(), pri);
        return;
      }

      // Pass 2: the one copy per entry.
      bucket_starts_.resize(static_cast<std::size_t>(wpp_));
      std::uint32_t finals_total = 0;
      for (std::size_t b = 0; b < static_cast<std::size_t>(wpp_); ++b) {
        bucket_starts_[b] = finals_total;
        finals_total += bucket_counts_[b];
      }
      util::PayloadRef scratch;
      Entry* fin = nullptr;
      if (finals_total != 0) {
        scratch = util::PayloadPool::global().acquire(
            std::size_t{finals_total} * sizeof(Entry));
        fin = reinterpret_cast<Entry*>(scratch.data());
      }

      // Per-slot bookkeeping hoisted out of the per-entry loop: sticky
      // buffer accounting, the forwarded-items stat, and the pending_
      // credit (one bulk add instead of an atomic per entry; ship_slot
      // debits as slots drain during the scatter).
      const std::uint64_t fwd = std::uint64_t{total} - finals_total;
      if (fwd != 0) pending_.fetch_add(fwd, std::memory_order_release);
      for (std::size_t b = static_cast<std::size_t>(wpp_); b < nbuckets;
           ++b) {
        if (bucket_counts_[b] == 0) continue;
        note_slot_used(lane, b - static_cast<std::size_t>(wpp_));
        stats_.routed_forwarded_items += bucket_counts_[b];
      }
      const std::uint32_t cap = lane.cap;
      for (std::size_t i = 0; i < total; ++i) {
        const std::uint32_t b = bucket_cursor_[i];
        const Entry& e = entries[i];
        if (b < static_cast<std::uint32_t>(wpp_)) {
          fin[bucket_starts_[b]++] = e;
          continue;
        }
        const auto s = static_cast<std::size_t>(b - wpp_);
        Slot& sl = lane.slots[s];
        sl.buf.push(e, cap);
        // Re-raise after every ship: ship_slot resets the slot's hop.
        if (next_ord > sl.hop) sl.hop = next_ord;
        if (sl.buf.size() >= cap) {
          ship_slot(lane, static_cast<int>(s), /*from_flush=*/false);
        }
      }

      // Finals: the scratch slab holds them grouped by local rank.
      scatter(w, scratch, 0, bucket_counts_.data(), pri);
    }

    RoutedDomain* domain_;
    rt::Worker* self_;
    ProcId self_proc_;
    int wpp_;  ///< workers per process, cached off the hot paths
    /// This process's row of the Router's precomputed table: the
    /// per-entry routing decision is row_[dst_proc], one indexed load.
    const Router::Route* row_;
    Lane bulk_;
    /// Sized only when cfg.priority_buffer_items > 0 (insert_priority
    /// falls back to the bulk lane otherwise).
    Lane pri_;
    /// rebucket_message scratch, reused across inbound batches (safe:
    /// handlers never nest — both transports enqueue rather than call
    /// through, so a ship inside a handler cannot re-enter it).
    std::vector<std::uint32_t> bucket_counts_;
    std::vector<std::uint32_t> bucket_starts_;
    std::vector<std::uint32_t> bucket_cursor_;
    std::atomic<std::uint64_t> pending_{0};
    core::WorkerTramStats stats_;
    std::uint64_t reserved_buffers_ = 0;
  };
};

}  // namespace tram::route
