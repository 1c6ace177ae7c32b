#pragma once
///
/// \file routed_domain.hpp
/// \brief Multi-hop aggregation over a virtual mesh (Scheme::Mesh2D/3D).
///
/// RoutedDomain is the topological-routing sibling of core::TramDomain,
/// sharing its wire format, pooled EntryBuffers, stats, and delivery
/// contract, but replacing the direct one-buffer-per-destination-process
/// layout with one buffer per mesh coordinate per dimension. The message
/// lifecycle gains an intermediate stage:
///
///   insert -> hop-encode (one load of the Router's precomputed table)
///          -> ship (slab handle moves, RoutedHeader stamped in place;
///             a last-hop buffer ships pre-sorted by destination local
///             rank under RoutedHeader::kSortedMagic — sorted *in place*
///             by permutation, never copied into a fresh slab)
///          -> re-aggregate (intermediate classifies the batch once; a
///             single-destination extent forwards as a refcounted
///             sub-view of the inbound slab with zero copies, a mixed
///             extent counting-sorts once into scratch and forwards
///             runs as sub-views of the scratch slab)
///          -> ship (slot slab is extent 0; staged forward runs ride as
///             extra payload extents, rt::Message::extras — gather-send)
///          -> ... -> deliver (final process scatters refcounted
///             sub-views per rank instead of copying)
///
/// Forwarded bytes are therefore copied once (mixed extent: into
/// scratch) or not at all (single-destination extent); the only
/// remaining forward memcpy into a slot buffer is the SMP
/// final-dimension slot, whose ship permutes its own slab and so cannot
/// carry foreign extents. stats_.routed_forward_{copy,subview}_bytes
/// make the split measurable.
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
#include <array>
#include <cassert>
#include <cstdio>
#include <cstdlib>
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
        deliver_(std::move(deliver)),
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

  /// Largest number of bytes any single worker ever had pinned in staged
  /// forward runs (sub-views awaiting their slot's next ship). Bounded by
  /// construction — a slot ships as soon as buffered + staged items reach
  /// the slot capacity, asserted at two fills per slot — and surfaced
  /// here so the retention policy is a measurable number, not a hope.
  std::uint64_t max_staged_forward_bytes() const {
    std::uint64_t m = 0;
    for (const auto& h : handles_) {
      if (h->staged_bytes_hwm_ > m) m = h->staged_bytes_hwm_;
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
    for (auto& h : handles_) {
      h->stats_ = core::WorkerTramStats{};
      // Re-arm the staged-forward high-water so each trial reports its
      // own retention peak (idle machine => staged_bytes_ is 0).
      h->staged_bytes_hwm_ = h->staged_bytes_;
    }
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
    ep_final_ = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          handle(w.id()).deliver_batch(w, rt::decode_payload<Entry>(m));
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
  DeliverFn deliver_;
  util::Topology topo_;
  Router router_;
  EndpointId ep_routed_ = -1;
  EndpointId ep_final_ = -1;
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
          const Slot& slot = lane->slots[s];
          if (!slot.buf.empty() || slot.staged != 0) {
            ship_slot(*lane, static_cast<int>(s), /*from_flush=*/true);
          }
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

    /// A forwarded run staged for a slot's next ship: a refcounted
    /// sub-view of the slab the entries already live in (inbound extent
    /// or re-bucket scratch). Ships as an extra payload extent.
    struct PendingRun {
      util::PayloadRef bytes;
      std::uint32_t count = 0;
    };
    /// One buffer per mesh coordinate per dimension, indexed by the
    /// Router's slot number.
    struct Slot {
      core::EntryBuffer<Entry> buf;
      /// Pending hop ordinal: max over the entries currently in the slot
      /// of the hop their next ship will be.
      std::uint8_t hop = 0;
      std::vector<PendingRun> runs;
      /// Items staged in runs (kept alongside so the ship threshold check
      /// is O(1)).
      std::uint32_t staged = 0;
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
      slot_counted_.assign(nslots, false);
    }

    /// A slot whose ship is the in-place permuted sorted form (final
    /// dimension, nontrivial local grouping). Such a slot's outgoing slab
    /// is rank-permuted at ship time, so forward runs cannot be staged on
    /// it as extents — they are the one remaining copy-in path.
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
      if (sl.buf.size() + sl.staged >= lane.cap) {
        ship_slot(lane, slot, /*from_flush=*/false);
      }
    }

    /// Priority slots stay out of the live-buffer metric (mirrors
    /// TramDomain: the bound being measured is the bulk footprint the
    /// section III-C formulas charge). Counted on first use whether the
    /// slot first sees a pushed entry or a staged sub-view run.
    void note_slot_used(const Lane& lane, std::size_t s) {
      if (lane.pri || slot_counted_[s]) return;
      slot_counted_[s] = true;
      ++reserved_buffers_;
      // Every increment IS a new high-water mark (the count never drops
      // within a run) — the trace shows when the footprint grew.
      trace::instant(trace::Cat::kRoute, trace::kBufferHighWater,
                     reserved_buffers_, static_cast<std::uint32_t>(s));
    }

    /// Stage a forwarded run on a slot as a refcounted sub-view (of the
    /// inbound slab or of the re-bucket scratch): zero bytes move now;
    /// the run ships as an extra payload extent of the slot's next
    /// message. Only for non-sorted_slot() slots — a permuted sorted
    /// ship has no extent channel.
    void stage_run(Lane& lane, int slot, util::PayloadRef run,
                   std::uint32_t n, std::uint8_t hop) {
      assert(!sorted_slot(slot));
      const std::uint32_t cap = lane.cap;
      const auto s = static_cast<std::size_t>(slot);
      Slot& sl = lane.slots[s];
      note_slot_used(lane, s);
      pending_.fetch_add(n, std::memory_order_release);
      // Stage at most cap entries per pending run, shipping on every
      // fill. An inbound extent usually fits one fill, but the
      // reliability layer flattens a multi-extent ship into one framed
      // slab, so a re-framed extent can span several fills — chunking
      // (free: the chunks are sub-views of the same slab) keeps the
      // retention bound below independent of the transport stack.
      std::uint32_t off = 0;
      while (n > 0) {
        const std::uint32_t k = n < cap ? n : cap;
        sl.runs.push_back(PendingRun{
            run.subref(std::size_t{off} * sizeof(Entry),
                       std::size_t{k} * sizeof(Entry)),
            k});
        sl.staged += k;
        // Retention bound: chunks are at most one fill (cap), and a slot
        // ships as soon as buffered + staged reaches cap, so the staged
        // backlog can never exceed two fills. A violation means a ship
        // was skipped and sub-view slabs are accumulating silently.
        assert(sl.staged <= 2 * cap &&
               "staged forward runs exceed the two-fill retention bound");
        staged_bytes_ += std::uint64_t{k} * sizeof(Entry);
        if (staged_bytes_ > staged_bytes_hwm_) {
          staged_bytes_hwm_ = staged_bytes_;
          stats_.max_staged_fwd_bytes = staged_bytes_;
        }
        if (hop > sl.hop) sl.hop = hop;
        off += k;
        n -= k;
        if (sl.buf.size() + sl.staged >= cap) {
          ship_slot(lane, slot, /*from_flush=*/false);
        }
      }
    }

    /// Append a contiguous run into a slot's buffer by copy, shipping
    /// every time it fills. After the zero-copy forward path this only
    /// serves sorted_slot() slots (the in-place permuted ship owns its
    /// whole slab); every byte through here lands in
    /// routed_forward_copy_bytes at the caller.
    void append_run(Lane& lane, int slot, const Entry* src, std::uint32_t n,
                    std::uint8_t hop) {
      const std::uint32_t cap = lane.cap;
      const auto s = static_cast<std::size_t>(slot);
      Slot& sl = lane.slots[s];
      note_slot_used(lane, s);
      pending_.fetch_add(n, std::memory_order_release);
      while (n > 0) {
        const std::uint32_t room = cap - sl.buf.size();
        const std::uint32_t k = n < room ? n : room;
        // Re-raise after every ship: ship_slot resets the slot's hop.
        if (hop > sl.hop) sl.hop = hop;
        sl.buf.append(src, k, cap);
        src += k;
        n -= k;
        if (sl.buf.size() >= cap) ship_slot(lane, slot, /*from_flush=*/false);
      }
    }

    /// Ship a slot's buffer (plus any staged forward runs) to its
    /// next-hop process. A sorted_slot() ships its own slab in-place
    /// permuted by destination local rank behind a RoutedSortedHeader —
    /// the permutation replaces the former counting-sort-into-fresh-slab
    /// copy. Every other slot ships its slab in place behind the plain
    /// RoutedHeader with staged runs attached as extra payload extents;
    /// when only staged runs exist, extent 0 degenerates to a pooled
    /// 8-byte header block. In all cases the handles move — ship copies
    /// nothing.
    void ship_slot(Lane& lane, int slot, bool from_flush) {
      auto& d = *domain_;
      const auto s = static_cast<std::size_t>(slot);
      Slot& sl = lane.slots[s];
      const std::size_t n = sl.buf.size() + sl.staged;
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

      if (sorted && wpp_ > 1) {
        // Permute the slot's own slab into rank-grouped order and ship
        // it by moving the handle; the wide header space was reserved at
        // construction. Forward runs are never staged here (see
        // stage_run), so the slab is the whole message.
        assert(sl.runs.empty() && sl.staged == 0);
        core::RoutedSortedHeader shdr;
        shdr.base = hdr;
        core::permute_sort_segments(
            sl.buf.data(), n, wpp_,
            [this](WorkerId dw) { return rank_of(dw); }, shdr.segments);
        std::memcpy(sl.buf.header(), &shdr, sizeof shdr);
        m.payload = sl.buf.take();
      } else {
        if (sl.buf.empty()) {
          // Nothing but staged runs: a header-only extent 0 carries the
          // routing metadata (cheaper than copying the first run behind
          // a header, and the slot's idle slab — if any — stays put).
          m.payload = util::PayloadPool::global().acquire(sizeof hdr);
          std::memcpy(m.payload.data(), &hdr, sizeof hdr);
        } else {
          std::memcpy(sl.buf.header(), &hdr, sizeof hdr);
          m.payload = sl.buf.take();
        }
        if (!sl.runs.empty()) {
          m.extras.reserve(sl.runs.size());
          for (auto& r : sl.runs) m.extras.push_back(std::move(r.bytes));
          sl.runs.clear();
          staged_bytes_ -= std::uint64_t{sl.staged} * sizeof(Entry);
          sl.staged = 0;
        }
      }

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

    /// A routed batch arrived at this process. Each payload extent is an
    /// independent entry array under the shared header: a pre-sorted
    /// last-hop batch scatters as refcounted sub-views; an unsorted hop
    /// extent is classified once and its runs delivered / re-staged as
    /// sub-views (or counting-sorted into scratch when it mixes buckets).
    void on_routed(rt::Worker& w, const rt::Message& msg) {
      const std::span<const std::byte> bytes = msg.payload.span();
      const core::RoutedWire wire = core::parse_routed_header(bytes, wpp_);
      const auto entries =
          rt::decode_payload<Entry>(bytes.subspan(wire.header_bytes));
      if (wire.sorted) {
        if (wpp_ == 1) {
          // Trivial grouping: every extent is our segment, whole.
          ++stats_.routed_subview_deliveries;
          deliver_batch(w, entries);
          for (const auto& ex : msg.extras) {
            ++stats_.routed_subview_deliveries;
            deliver_batch(w, rt::decode_payload<Entry>(ex.span()));
          }
          return;
        }
        // The in-place permuted SMP ship owns its whole slab; it never
        // carries extents (stage_run refuses sorted slots).
        assert(msg.extras.empty());
        scatter_sorted(w, msg, entries, wire.hdr.priority());
        trace::instant(trace::Cat::kRoute, trace::kScatterSorted,
                       entries.size());
      } else {
        const std::uint64_t t0 = trace::maybe_now();
        rebucket_message(w, wire, msg, entries);
        trace::complete(trace::Cat::kRoute, trace::kRebucket, t0,
                        entries.size(), wire.hdr.hop);
      }
    }

    /// Sorted last-hop delivery (wpp_ > 1): every entry terminates at
    /// this process and arrives grouped by destination local rank —
    /// deliver our own segment in place, forward each other rank's as a
    /// refcounted sub-view of the inbound slab (TramDomain's WsP scatter
    /// applied to the routed path; the slab recycles when the last
    /// segment drops).
    void scatter_sorted(rt::Worker& w, const rt::Message& msg,
                        std::span<const Entry> entries, bool pri) {
      auto& d = *domain_;
      const core::SegmentHeader seg = core::parse_segments(
          msg.payload.span().subspan(sizeof(core::RoutedHeader)),
          sizeof(Entry), wpp_);
      const LocalWorkerId own = rank_of(w.id());
      std::size_t offset = 0;
      for (int r = 0; r < wpp_; ++r) {
        const std::uint32_t count = seg.counts[r];
        if (count == 0) continue;
        const auto segment = entries.subspan(offset, count);
        const std::size_t seg_bytes_off =
            sizeof(core::RoutedSortedHeader) + offset * sizeof(Entry);
        offset += count;
        ++stats_.routed_subview_deliveries;
        if (r == own) {
          deliver_batch(w, segment);
          continue;
        }
        rt::Message m;
        m.endpoint = d.ep_final_;
        m.dst_worker = d.topo_.worker_at(self_proc_, r);
        m.src_worker = w.id();
        m.expedited = pri || d.cfg_.expedited;
        m.payload = msg.payload.subref(seg_bytes_off,
                                       count * sizeof(Entry));
        ++stats_.regroup_msgs;
        w.send(std::move(m));
      }
    }

    /// Unsorted hop message: classify every entry of every extent by
    /// (final local rank | next-hop slot) in ONE pass, then move whole
    /// runs. A single-bucket extent — a relay stream whose batch shares
    /// one next hop — never copies: it is delivered in place or
    /// re-staged as a sub-view of the *inbound* slab and rides the next
    /// ship as an extra payload extent. Mixed extents pay exactly one
    /// copy, the rebucket scatter, aimed directly at its final resting
    /// place (next-hop slot buffers for forwards, a regroup scratch for
    /// other-rank finals). Processing the extents together keeps the
    /// per-batch amortization: an intermediate hop can receive several
    /// extents per message, and rebucketing each separately would pay
    /// the classify/scratch fixed costs per extent.
    void rebucket_message(rt::Worker& w, const core::RoutedWire& wire,
                          const rt::Message& msg,
                          std::span<const Entry> entries) {
      auto& d = *domain_;
      const core::RoutedHeader& hdr = wire.hdr;
      Lane& lane = hdr.priority() ? pri_ : bulk_;
      const bool pri = lane.pri;
      const LocalWorkerId own = rank_of(w.id());
      const auto next_ord = static_cast<std::uint8_t>(hdr.hop + 1);
      const std::size_t nbuckets =
          static_cast<std::size_t>(wpp_) + lane.slots.size();
      constexpr std::uint32_t kMixed = UINT32_MAX;

      extents_.clear();
      if (!entries.empty()) {
        extents_.push_back(
            ExtentView{entries, &msg.payload, wire.header_bytes, 0, 0});
      }
      for (const auto& ex : msg.extras) {
        const auto es = rt::decode_payload<Entry>(ex.span());
        if (!es.empty()) extents_.push_back(ExtentView{es, &ex, 0, 0, 0});
      }
      if (extents_.empty()) return;
      std::size_t total = 0;
      for (const auto& ext : extents_) total += ext.entries.size();

      // Pass 1 over every extent at once: shared bucket counts, the
      // per-entry bucket index, and per-extent single-bucket detection —
      // finals bucket to their local rank, forwards to wpp_ + next-hop
      // slot (one table load each).
      bucket_counts_.assign(nbuckets, 0);
      bucket_cursor_.resize(total);  // per-entry bucket, across extents
      std::size_t ci = 0;
      for (auto& ext : extents_) {
        ext.cursor_off = ci;
        std::uint32_t first = kMixed;
        bool mixed = false;
        for (const Entry& e : ext.entries) {
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
          bucket_cursor_[ci++] = b;
          bucket_counts_[b]++;
          if (first == kMixed) {
            first = b;
          } else if (b != first) {
            mixed = true;
          }
        }
        ext.only = mixed ? kMixed : first;
      }

      // Single-bucket extents move whole, as sub-views of the inbound
      // slab they arrived in; their counts leave the shared totals so
      // the scratch below covers exactly the mixed remainder.
      std::size_t mixed_total = total;
      for (const auto& ext : extents_) {
        if (ext.only == kMixed) continue;
        const std::size_t n = ext.entries.size();
        const auto count = static_cast<std::uint32_t>(n);
        mixed_total -= n;
        bucket_counts_[ext.only] -= count;
        const std::size_t only = ext.only;
        if (only < static_cast<std::size_t>(wpp_)) {
          ++stats_.routed_subview_deliveries;
          if (static_cast<LocalWorkerId>(only) == own) {
            deliver_batch(w, ext.entries);
          } else {
            rt::Message m;
            m.endpoint = d.ep_final_;
            m.dst_worker =
                d.topo_.worker_at(self_proc_, static_cast<int>(only));
            m.src_worker = w.id();
            m.expedited = pri || d.cfg_.expedited;
            m.payload = ext.slab->subref(ext.base_off, n * sizeof(Entry));
            ++stats_.regroup_msgs;
            w.send(std::move(m));
          }
        } else {
          const int slot = static_cast<int>(only) - wpp_;
          stats_.routed_forwarded_items += count;
          if (sorted_slot(slot)) {
            stats_.routed_forward_copy_bytes += n * sizeof(Entry);
            append_run(lane, slot, ext.entries.data(), count, next_ord);
          } else {
            stats_.routed_forward_subview_bytes += n * sizeof(Entry);
            stage_run(lane, slot,
                      ext.slab->subref(ext.base_off, n * sizeof(Entry)),
                      count, next_ord);
          }
        }
      }
      if (mixed_total == 0) return;
      stats_.routed_rebucket_copy_bytes +=
          std::uint64_t{mixed_total} * sizeof(Entry);

      // Pass 2. Mixed entries pay exactly one copy — the rebucket
      // scatter — and its destination is chosen so no second copy ever
      // follows: forwards scatter STRAIGHT into their next-hop slot's
      // buffer (the scatter doubles as the append, and the slot still
      // ships one contiguous extent by moving its slab); finals bound
      // for other local ranks scatter into a scratch slab sized to just
      // them, so each regroup ships as a refcounted sub-view. An earlier
      // iteration scattered everything into scratch and staged forward
      // runs as sub-view extras — zero additional copies on paper, but
      // the per-extent handle churn and fragmented downstream extents
      // cost more than the one memcpy it saved. Sub-view forwarding
      // stays for single-bucket extents (above), where it genuinely
      // replaces a copy with a handle move.
      std::uint32_t finals_total = 0;
      for (std::size_t b = 0; b < static_cast<std::size_t>(wpp_); ++b) {
        finals_total += bucket_counts_[b];
      }
      bucket_starts_.resize(static_cast<std::size_t>(wpp_));
      std::uint32_t acc = 0;
      for (std::size_t b = 0; b < static_cast<std::size_t>(wpp_); ++b) {
        bucket_starts_[b] = acc;
        acc += bucket_counts_[b];
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
      const std::uint64_t fwd_mixed =
          std::uint64_t{mixed_total} - finals_total;
      if (fwd_mixed != 0) {
        pending_.fetch_add(fwd_mixed, std::memory_order_release);
      }
      for (std::size_t b = static_cast<std::size_t>(wpp_); b < nbuckets;
           ++b) {
        if (bucket_counts_[b] == 0) continue;
        note_slot_used(lane, b - static_cast<std::size_t>(wpp_));
        stats_.routed_forwarded_items += bucket_counts_[b];
      }
      const std::uint32_t cap = lane.cap;
      for (const auto& ext : extents_) {
        if (ext.only != kMixed) continue;
        const std::size_t n = ext.entries.size();
        for (std::size_t i = 0; i < n; ++i) {
          const std::uint32_t b = bucket_cursor_[ext.cursor_off + i];
          const Entry& e = ext.entries[i];
          if (b < static_cast<std::uint32_t>(wpp_)) {
            fin[bucket_starts_[b]++] = e;
            continue;
          }
          const auto s = static_cast<std::size_t>(b - wpp_);
          Slot& sl = lane.slots[s];
          sl.buf.push(e, cap);
          // Re-raise after every ship: ship_slot resets the slot's hop.
          if (next_ord > sl.hop) sl.hop = next_ord;
          if (sl.buf.size() + sl.staged >= cap) {
            ship_slot(lane, static_cast<int>(s), /*from_flush=*/false);
          }
        }
      }

      // Finals: one batched delivery for our own rank, sub-views of the
      // scratch slab for the rest. A run's start is recovered as
      // cursor - count (bucket_starts_ walked forward in the scatter).
      for (int r = 0; r < wpp_; ++r) {
        const std::uint32_t count =
            bucket_counts_[static_cast<std::size_t>(r)];
        if (count == 0) continue;
        const std::uint32_t start =
            bucket_starts_[static_cast<std::size_t>(r)] - count;
        const auto segment = std::span<const Entry>(fin + start, count);
        // Count every segment handed off as a slab view (mirrors
        // scatter_sorted, so the SMP metric is path-independent).
        ++stats_.routed_subview_deliveries;
        if (r == own) {
          deliver_batch(w, segment);
          continue;
        }
        rt::Message m;
        m.endpoint = d.ep_final_;
        m.dst_worker = d.topo_.worker_at(self_proc_, r);
        m.src_worker = w.id();
        m.expedited = pri || d.cfg_.expedited;
        m.payload = scratch.subref(start * sizeof(Entry),
                                   count * sizeof(Entry));
        ++stats_.regroup_msgs;
        w.send(std::move(m));
      }
    }

    /// Final-hop delivery on the destination worker.
    void deliver_batch(rt::Worker& w, std::span<const Entry> entries) {
      auto& d = *domain_;
      for (const Entry& e : entries) {
        if (e.dest != w.id()) {
          std::fprintf(stderr,
                       "routed misroute: entry dest=%d delivered on "
                       "worker=%d (mesh=%s)\n",
                       e.dest, w.id(), d.mesh().to_string().c_str());
          std::abort();
        }
        ++stats_.items_delivered;
        d.deliver_(w, e.item);
      }
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
    /// One sticky flag per bulk slot for the reserved_buffers_ metric
    /// (replaces EntryBuffer::ever_acquired, which a staging-only slot
    /// would never set).
    std::vector<bool> slot_counted_;
    /// Bytes currently pinned by staged forward runs, and the worst case
    /// ever seen — the retention high-water mark max_staged_forward_bytes
    /// reports (max_reserved_buffers-style visibility for the sub-view
    /// backlog, which would otherwise grow silently).
    std::uint64_t staged_bytes_ = 0;
    std::uint64_t staged_bytes_hwm_ = 0;
    /// One inbound payload extent under rebucket_message: its decoded
    /// entries, the slab they live in (for sub-view staging), the byte
    /// offset of the entries within that slab, this extent's start in
    /// bucket_cursor_, and its sole bucket (UINT32_MAX when mixed).
    struct ExtentView {
      std::span<const Entry> entries;
      const util::PayloadRef* slab;
      std::size_t base_off;
      std::size_t cursor_off;
      std::uint32_t only;
    };
    /// rebucket_message scratch, reused across inbound batches (safe:
    /// handlers never nest — both transports enqueue rather than call
    /// through, so a ship inside a handler cannot re-enter it).
    std::vector<ExtentView> extents_;
    std::vector<std::uint32_t> bucket_counts_;
    std::vector<std::uint32_t> bucket_starts_;
    std::vector<std::uint32_t> bucket_cursor_;
    std::atomic<std::uint64_t> pending_{0};
    core::WorkerTramStats stats_;
    std::uint64_t reserved_buffers_ = 0;
  };
};

}  // namespace tram::route
