#pragma once
///
/// \file tram.hpp
/// \brief TramLib: the shared memory-aware message aggregation library.
///
/// TramDomain is the one aggregation domain, for all seven schemes; every
/// application holds TramDomains only. Its SPMD API mirrors the paper's
/// Charm++ library:
///
///   core::TramDomain<Update> tram(machine, {.scheme = Scheme::WPs,
///                                           .buffer_items = 1024},
///                                 [](rt::Worker& w, const Update& u) {
///                                   /* delivered on the destination worker */
///                                 });
///   machine.run([&](rt::Worker& self) {
///     auto& t = tram.on(self);
///     t.insert(dest_worker, Update{...});   // aggregated per the scheme
///     ...
///     t.flush_all();                        // ship partial buffers
///   });
///
/// At initialization the user passes the delivery function ("a pointer to
/// the charm++ object and function to which data needs to be delivered");
/// inserts check the destination buffer's fill against g and ship a message
/// when full; flushed messages are resized to their actual occupancy; idle
/// workers flush automatically when flush_on_idle is set.
///
/// Each worker handle keeps a bulk lane and a priority lane of slots, one
/// pooled EntryBuffer per slot. The schemes differ in how an entry picks
/// its slot and where the slot ships (scheme.hpp, the paper's Figs. 4-7):
///   - WW indexes its slots by destination worker and ships each to that
///     worker's final endpoint.
///   - None keeps no slots: every item is its own message.
///   - PP shares one PpBuffer per destination process among the workers
///     of a process (pp_buffer.hpp) in place of a bulk lane.
///   - WPs, WsP, Mesh2D and Mesh3D index their slots through one Router
///     over a virtual process mesh: 1-D for WPs and WsP, where a slot is a
///     destination process, 2-D or 3-D for the routed schemes. A slot
///     ships behind a RoutedHeader to one process endpoint, on_routed.
///
/// The message path is zero-copy end to end: inserts encode entries in
/// place into pooled slabs, a full buffer ships by moving its slab handle
/// into the Message payload (its header stamped into space the slab
/// reserved), and every multi-worker receiver hands sibling workers their
/// runs as refcounted views of one slab (core::FinalHop::scatter_runs).
/// A mesh message's lifecycle:
///
///   insert -> slot (one load of the Router's precomputed table)
///          -> ship (a final slot, whose entries all end at its target
///             process, ships pre-sorted by destination local rank under
///             RoutedHeader::kSortedMagic, permuted in place, unless the
///             scheme groups at the receiver: WPs)
///          -> on_routed: a sorted batch scatters as refcounted sub-views;
///             any other batch is classified once, its finals grouped by
///             local rank into one scratch slab and its forwards copied
///             once, straight into their next-hop slot
///          -> ship -> ... -> deliver
///
/// On the 1-D mesh every slot is final and nothing forwards: WsP's source
/// sorts (the paper's source-side grouping) and WPs's receiver classifies
/// (its receiver-side grouping). PP's shared buffers ship headerless to
/// their own endpoint, which classifies the batch the same way.
///
/// Every wire record carries its final destination worker
/// (WireEntry::dest), so intermediates never rewrite entries. Quiescence
/// holds across hops because a re-bucketed entry raises this worker's
/// pending counter before the inbound message counts as handled, and
/// flush-on-idle drains intermediate buffers exactly like source buffers
/// (so the multi-hop meshes reject flush_on_idle = false). Under a lossy
/// fabric the reliability layer dedups retransmitted hop batches before
/// on_routed sees them, and the worker stats count each ship once.
///
/// Urgent items (insert_priority, cfg.priority_buffer_items > 0) ride the
/// priority lane: the same slot layout sized to the small priority buffer,
/// shipped expedited and, over a mesh, with the RoutedHeader::kPriority bit
/// set, so intermediates re-bucket them into their own priority lane and
/// flush it ahead of bulk: urgent items overtake bulk at every hop.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/grouping.hpp"
#include "core/pp_buffer.hpp"
#include "core/router.hpp"
#include "core/tram_stats.hpp"
#include "core/virtual_mesh.hpp"
#include "core/wire.hpp"
#include "runtime/machine.hpp"
#include "runtime/message.hpp"
#include "runtime/worker.hpp"
#include "trace/trace.hpp"
#include "util/payload_pool.hpp"

namespace tram::core {

/// Sequence for SharedStore keys of PP state. Must be shared across ALL
/// TramDomain<T> instantiations: a function-local static inside the
/// template would give every item type its own counter, making two domains
/// of different item types collide on the same key — and SharedStore would
/// then hand one domain the other's buffers under the wrong type.
inline std::atomic<std::uint64_t> tram_pp_domain_seq{0};

template <typename Item>
  requires std::is_trivially_copyable_v<Item>
class TramDomain {
 public:
  using Entry = WireEntry<Item>;
  /// Runs on the destination worker's thread for every delivered item.
  using DeliverFn = std::function<void(rt::Worker&, const Item&)>;

  class Handle;

  TramDomain(rt::Machine& machine, TramConfig cfg, DeliverFn deliver)
      : machine_(machine),
        cfg_(cfg),
        finals_{std::move(deliver), cfg.scheme,
                machine.topology().workers_per_proc()},
        topo_(machine.topology()),
        router_(make_mesh(topo_.procs(), cfg)) {
    if (topo_.workers_per_proc() > kMaxLocalWorkers) {
      throw std::invalid_argument("TramDomain: workers_per_proc exceeds "
                                  "kMaxLocalWorkers");
    }
    // Over a multi-hop mesh idle flushing is a correctness requirement,
    // not a latency knob: entries re-aggregated at an intermediate after
    // the application mains returned can only leave through the idle
    // hook, so quiescence would hang on the first partial intermediate
    // buffer. The 1-D mesh has no intermediate hops.
    if (is_routed(cfg_.scheme) && !cfg_.flush_on_idle) {
      throw std::invalid_argument(
          "TramDomain: flush_on_idle=false would strand intermediate-hop "
          "buffers (multi-hop routing requires idle flushing)");
    }
    register_endpoints();
    // Per-process shared PP state (allocated through the process's shared
    // store: PP's cross-worker buffers are process-local shared memory).
    if (cfg_.scheme == Scheme::PP) {
      const std::string key =
          "tram_pp_domain_" +
          std::to_string(tram_pp_domain_seq.fetch_add(1));
      pp_states_.resize(static_cast<std::size_t>(topo_.procs()));
      for (ProcId p = 0; p < topo_.procs(); ++p) {
        pp_states_[p] = machine.process(p).shared().template get_or_create<PpState>(
            key, [&] {
              return new PpState(static_cast<std::uint32_t>(topo_.procs()),
                                 cfg_.buffer_items);
            });
      }
    }
    handles_.reserve(static_cast<std::size_t>(topo_.workers()));
    for (WorkerId w = 0; w < topo_.workers(); ++w) {
      handles_.push_back(std::unique_ptr<Handle>(
          new Handle(*this, machine.worker(w))));
    }
    install_hooks();
  }

  TramDomain(const TramDomain&) = delete;
  TramDomain& operator=(const TramDomain&) = delete;

  /// This worker's aggregation handle.
  Handle& on(rt::Worker& w) {
    return *handles_[static_cast<std::size_t>(w.id())];
  }

  /// The virtual mesh the Router routes over: the 2-D or 3-D mesh of
  /// Mesh2D/Mesh3D, the 1-D mesh (every process one hop away) otherwise.
  const VirtualMesh& mesh() const noexcept { return router_.mesh(); }

  /// Merged stats across all workers (call after machine.run returns).
  WorkerTramStats aggregate_stats() const {
    WorkerTramStats total;
    for (const auto& h : handles_) total.merge(h->stats_);
    return total;
  }

  /// Actual bytes reserved in aggregation buffers, machine-wide (compare
  /// with the section III-C formulas): g * sizeof(Entry) for each bulk
  /// buffer a worker ever populated and for each PP shared buffer. The
  /// slab itself cycles through the payload pool, but the footprint
  /// charge matches the paper's model.
  std::uint64_t allocated_buffer_bytes() const {
    std::uint64_t buffers = 0;
    for (const auto& h : handles_) buffers += h->reserved_buffers_;
    for (const auto& pp : pp_states_) buffers += pp->buffers.size();
    return buffers * cfg_.buffer_items * sizeof(Entry);
  }

  /// Largest number of distinct bulk buffers any single worker ever
  /// populated: up to the worker count for WW, the process count for
  /// WPs/WsP (routed_buffers_per_core of the 1-D mesh), sum(dims_k - 1) + 1
  /// for Mesh2D/Mesh3D, and 0 for PP, whose buffers are process-shared.
  std::uint64_t max_reserved_buffers() const {
    std::uint64_t m = 0;
    for (const auto& h : handles_) {
      if (h->reserved_buffers_ > m) m = h->reserved_buffers_;
    }
    return m;
  }

  /// Zero all counters between benchmark trials (machine must be idle).
  void reset_stats() {
    for (auto& h : handles_) h->stats_ = WorkerTramStats{};
  }

 private:
  friend class Handle;

  /// Shared source-side buffers for the PP scheme: one PpBuffer per
  /// destination process, plus the process's pending-item count.
  struct PpState {
    PpState(std::uint32_t nprocs, std::uint32_t g) {
      buffers.reserve(nprocs);
      for (std::uint32_t i = 0; i < nprocs; ++i) {
        buffers.push_back(std::make_unique<PpBuffer<Entry>>(g));
      }
    }
    std::vector<std::unique_ptr<PpBuffer<Entry>>> buffers;
    std::atomic<std::uint64_t> pending{0};
  };

  /// The scheme's mesh: Mesh2D/Mesh3D's from cfg.route_dims or
  /// auto-factored, the 1-D mesh for every other scheme.
  static VirtualMesh make_mesh(int procs, const TramConfig& cfg) {
    if (!is_routed(cfg.scheme)) return VirtualMesh::auto_factor(procs, 1);
    const int d = mesh_ndims(cfg.scheme);
    if (cfg.route_dims[0] != 0) {
      // Extents beyond the scheme's dimensionality are a mismatched
      // --scheme/--route-dims pair; truncating would silently run the
      // wrong topology.
      for (std::size_t k = static_cast<std::size_t>(d);
           k < cfg.route_dims.size(); ++k) {
        if (cfg.route_dims[k] != 0) {
          throw std::invalid_argument(
              "TramDomain: route_dims has more extents than the scheme "
              "has mesh dimensions");
        }
      }
      return VirtualMesh(procs, std::span<const int>(cfg.route_dims.data(),
                                                     static_cast<std::size_t>(d)));
    }
    return VirtualMesh::auto_factor(procs, d);
  }

  void register_endpoints() {
    // Final-hop delivery: a batch of entries addressed to this worker.
    // (decode_payload aborts on a truncated payload in every build mode.)
    finals_.endpoint = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          finals_.deliver_batch(w, rt::decode_payload<Entry>(m),
                                on(w).stats_);
        });
    // A mesh slot's batch behind its RoutedHeader, landing on some worker
    // of the target process.
    ep_routed_ = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) { on(w).on_routed(w, m); });
    // A PP batch: headerless, every entry ends at the receiving process.
    ep_pp_ = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          on(w).classify(w, m.payload, 0, rt::decode_payload<Entry>(m),
                         RoutedHeader{});
        });
  }

  void install_hooks() {
    for (WorkerId w = 0; w < topo_.workers(); ++w) {
      Handle* h = handles_[static_cast<std::size_t>(w)].get();
      rt::Worker& worker = machine_.worker(w);
      worker.add_pending_counter([h] {
        return h->pending_.load(std::memory_order_acquire);
      });
      if (cfg_.scheme == Scheme::PP && topo_.local_rank(w) == 0) {
        PpState* pp = pp_states_[topo_.proc_of_worker(w)].get();
        worker.add_pending_counter([pp] {
          return pp->pending.load(std::memory_order_acquire);
        });
      }
      if (cfg_.flush_on_idle && cfg_.scheme != Scheme::None) {
        worker.add_idle_hook([h](rt::Worker&) { h->flush_all(); });
      }
    }
  }

  rt::Machine& machine_;
  TramConfig cfg_;
  FinalHop<Item> finals_;
  util::Topology topo_;
  Router router_;
  EndpointId ep_routed_ = -1;
  EndpointId ep_pp_ = -1;
  std::vector<std::shared_ptr<PpState>> pp_states_;
  std::vector<std::unique_ptr<Handle>> handles_;

 public:
  /// Per-worker aggregation endpoint. Obtain via TramDomain::on(worker);
  /// insert/flush_all must be called from the owning worker's thread.
  class Handle {
   public:
    /// Aggregate one item toward the given destination worker.
    void insert(WorkerId dest, const Item& item) {
      auto& d = *domain_;
      ++stats_.items_inserted;
      const Entry e{dest, item};
      if (d.cfg_.scheme == Scheme::None) {
        // One message per item: the unaggregated baseline.
        rt::Message m;
        m.endpoint = d.finals_.endpoint;
        m.dst_worker = dest;
        m.src_worker = self_->id();
        m.expedited = d.cfg_.expedited;
        m.payload = rt::encode_payload<Entry>(e);
        account_ship(1, /*pri=*/false, /*from_flush=*/false);
        self_->send(std::move(m));
      } else if (d.cfg_.scheme == Scheme::PP) {
        const ProcId dp = proc_of(dest);
        auto* pp = d.pp_states_[self_proc_].get();
        pp->pending.fetch_add(1, std::memory_order_release);
        auto sealed = pp->buffers[static_cast<std::size_t>(dp)]->insert(
            e, stats_.pp_cas_retries);
        if (sealed) ship_pp(dp, std::move(*sealed), /*from_flush=*/false);
      } else {
        push(bulk_, e);
      }
    }

    /// Aggregate an urgent item (the paper's future-work prioritization).
    /// Rides the priority lane: small buffers fill (and ship) quickly, the
    /// messages are expedited, and over a mesh every intermediate
    /// re-buckets the entries into its own priority lane and flushes it
    /// ahead of bulk. Falls back to insert() when priority buffering is
    /// not configured.
    void insert_priority(WorkerId dest, const Item& item) {
      if (pri_.slots.empty()) {
        insert(dest, item);
        return;
      }
      ++stats_.items_inserted;
      ++stats_.priority_items;
      push(pri_, Entry{dest, item});
    }

    /// Ship every partially filled buffer ("flush accumulated items").
    /// Idle workers call this automatically when flush_on_idle is set;
    /// intermediate buffers drain the same way.
    void flush_all() {
      const std::uint64_t shipped0 = stats_.msgs_shipped;
      // Priority slots first: urgent stragglers leave ahead of bulk.
      for (Lane* lane : {&pri_, &bulk_}) {
        for (std::size_t s = 0; s < lane->slots.size(); ++s) {
          ship_slot(*lane, s, /*from_flush=*/true);
        }
      }
      auto& d = *domain_;
      if (d.cfg_.scheme == Scheme::PP) {
        auto* pp = d.pp_states_[self_proc_].get();
        for (ProcId dp = 0; dp < d.topo_.procs(); ++dp) {
          auto partial = pp->buffers[static_cast<std::size_t>(dp)]->flush();
          if (partial && !partial->empty()) {
            ship_pp(dp, std::move(*partial), /*from_flush=*/true);
          }
        }
      }
      if (stats_.msgs_shipped > shipped0) {
        trace::instant(trace::Cat::kRoute, trace::kFlushIdle,
                       stats_.msgs_shipped - shipped0);
      }
    }

   private:
    friend class TramDomain;

    struct Slot {
      EntryBuffer<Entry> buf;
      /// Pending hop ordinal: max over the entries currently in the slot
      /// of the hop their next ship will be.
      std::uint8_t hop = 0;
    };
    /// Bulk or priority traffic: the same slot layout, so one slot index
    /// serves both, with the lane's own capacity. Priority slots ship
    /// expedited with the RoutedHeader::kPriority bit set.
    struct Lane {
      std::vector<Slot> slots;
      std::uint32_t cap = 1;
      bool pri = false;
    };

    Handle(TramDomain& d, rt::Worker& self)
        : domain_(&d),
          self_(&self),
          self_proc_(d.topo_.proc_of_worker(self.id())),
          wpp_(d.topo_.workers_per_proc()),
          by_worker_(d.cfg_.scheme == Scheme::WW),
          row_(d.router_.row(self_proc_)) {
      const TramConfig& cfg = d.cfg_;
      if (cfg.scheme == Scheme::None) return;
      const auto nslots = static_cast<std::size_t>(
          by_worker_ ? d.topo_.workers() : d.router_.slots());
      if (cfg.scheme != Scheme::PP) {
        bulk_ = Lane{std::vector<Slot>(nslots),
                     std::max<std::uint32_t>(1, cfg.buffer_items), false};
      }
      if (cfg.priority_buffer_items > 0) {
        // Priority slots are always worker-local (even under PP: sharing
        // would reintroduce the very latency the priority path removes).
        pri_ = Lane{std::vector<Slot>(nslots), cfg.priority_buffer_items,
                    true};
      }
      if (by_worker_) return;
      // A mesh slab reserves its header up front: the wide sorted header
      // where the ship permutes a multi-worker batch, else the 8 bytes.
      for (Lane* lane : {&bulk_, &pri_}) {
        for (std::size_t s = 0; s < lane->slots.size(); ++s) {
          lane->slots[s].buf.set_header_bytes(
              sorts(s) && wpp_ > 1 ? sizeof(RoutedSortedHeader)
                                   : sizeof(RoutedHeader));
        }
      }
    }

    /// A mesh slot whose ship is pre-sorted by destination local rank.
    bool sorts(std::size_t s) const noexcept {
      return !groups_at_receiver(domain_->cfg_.scheme) &&
             domain_->router_.ships_final(static_cast<int>(s));
    }

    /// workers_per_proc == 1 (non-SMP) is the common bench shape; skip
    /// the integer division on the per-entry paths.
    ProcId proc_of(WorkerId w) const noexcept {
      return wpp_ == 1 ? w : w / wpp_;
    }
    LocalWorkerId rank_of(WorkerId w) const noexcept {
      return wpp_ == 1 ? 0 : w % wpp_;
    }

    /// Bucket an entry into its slot of `lane`; ship at cap. Its next
    /// ship is hop 1.
    void push(Lane& lane, const Entry& e) {
      const auto s = static_cast<std::size_t>(
          by_worker_ ? e.dest : row_[proc_of(e.dest)].slot);
      Slot& sl = lane.slots[s];
      note_slot_used(lane, s);
      sl.buf.push(e, lane.cap);
      if (sl.hop == 0) sl.hop = 1;
      pending_.fetch_add(1, std::memory_order_release);
      if (sl.buf.size() >= lane.cap) ship_slot(lane, s, /*from_flush=*/false);
    }

    /// Priority slots stay out of the reserved-buffer footprint, which
    /// charges the bulk buffers the section III-C formulas model. Called
    /// before the slot's first push, so a slot that has never acquired a
    /// slab is new.
    void note_slot_used(const Lane& lane, std::size_t s) {
      if (lane.pri || lane.slots[s].buf.ever_acquired()) return;
      ++reserved_buffers_;
      // Every increment IS a new high-water mark (the count never drops
      // within a run) — the trace shows when the footprint grew.
      trace::instant(trace::Cat::kRoute, trace::kBufferHighWater,
                     reserved_buffers_, static_cast<std::uint32_t>(s));
    }

    /// Ship slot s of `lane` by moving its slab handle — ship copies
    /// nothing. WW's slot goes to the final endpoint of worker s. A mesh
    /// slot goes to its next-hop process behind the RoutedHeader stamped
    /// into the slab's reserved space; a sorting slot permutes its slab by
    /// destination local rank behind a RoutedSortedHeader first.
    void ship_slot(Lane& lane, std::size_t s, bool from_flush) {
      auto& d = *domain_;
      Slot& sl = lane.slots[s];
      const std::size_t n = sl.buf.size();
      if (n == 0) return;
      const bool pri = lane.pri;
      const std::uint8_t hop = sl.hop;
      const bool sorted = !by_worker_ && sorts(s);

      rt::Message m;
      m.src_worker = self_->id();
      // Priority batches are always expedited, whatever the bulk policy:
      // expedited dispatch is what lets them overtake bulk in every inbox
      // along the route.
      m.expedited = pri || d.cfg_.expedited;
      if (by_worker_) {
        m.endpoint = d.finals_.endpoint;
        m.dst_worker = static_cast<WorkerId>(s);
      } else {
        RoutedHeader hdr;
        hdr.magic = sorted ? RoutedHeader::kSortedMagic : RoutedHeader::kMagic;
        hdr.dim = static_cast<std::uint16_t>(
            d.router_.dim_of_slot(static_cast<int>(s)));
        hdr.hop = hop;
        hdr.flags = pri ? RoutedHeader::kPriority : 0;
        if (sorted && wpp_ > 1) {
          RoutedSortedHeader shdr;
          shdr.base = hdr;
          permute_sort_segments(
              sl.buf.data(), n, wpp_,
              [this](WorkerId dw) { return rank_of(dw); }, shdr.segments);
          std::memcpy(sl.buf.header(), &shdr, sizeof shdr);
        } else {
          std::memcpy(sl.buf.header(), &hdr, sizeof hdr);
        }
        m.endpoint = d.ep_routed_;
        m.hops = static_cast<std::uint8_t>(hop - 1);
        ++stats_.routed_hop_msgs;
        if (sorted) ++stats_.routed_sorted_msgs;
        if (hop > 1) ++stats_.routed_forward_msgs;
      }
      m.payload = sl.buf.take();
      account_ship(n, pri, from_flush);
      sl.hop = 0;
      // a1 packs the slot with what kind of ship this was: bit 16 pri,
      // 17 flush, 18 sorted fast path; hop in bits 24+.
      trace::instant(trace::Cat::kRoute, trace::kShip, n,
                     static_cast<std::uint32_t>(s) |
                         (pri ? 1u << 16 : 0) | (from_flush ? 1u << 17 : 0) |
                         (sorted ? 1u << 18 : 0) |
                         (static_cast<std::uint32_t>(hop) << 24));
      if (by_worker_) {
        self_->send(std::move(m));
      } else {
        self_->send_to_proc(
            d.router_.ship_target(self_proc_, static_cast<int>(s)),
            std::move(m));
      }
      pending_.fetch_sub(n, std::memory_order_release);
    }

    /// PP ship: the sealed or flushed shared slab, handed off as-is.
    void ship_pp(ProcId dp, util::PooledBatch<Entry>&& batch,
                 bool from_flush) {
      auto& d = *domain_;
      const std::size_t n = batch.size();
      rt::Message m;
      m.endpoint = d.ep_pp_;
      m.src_worker = self_->id();
      m.expedited = d.cfg_.expedited;
      m.payload = std::move(batch).take_ref();
      account_ship(n, /*pri=*/false, from_flush);
      self_->send_to_proc(dp, std::move(m));
      d.pp_states_[self_proc_]->pending.fetch_sub(
          n, std::memory_order_release);
    }

    void account_ship(std::size_t n, bool pri, bool from_flush) {
      ++stats_.msgs_shipped;
      if (pri) ++stats_.priority_msgs;
      if (from_flush) ++stats_.flush_msgs;
      stats_.occupancy_at_ship.add(static_cast<double>(n));
    }

    /// A mesh batch arrived at this process: a pre-sorted batch scatters
    /// as refcounted sub-views; any other batch is classified once.
    void on_routed(rt::Worker& w, const rt::Message& msg) {
      const std::span<const std::byte> bytes = msg.payload.span();
      const RoutedWire wire = parse_routed_header(bytes, wpp_);
      const auto entries =
          rt::decode_payload<Entry>(bytes.subspan(wire.header_bytes));
      if (!wire.sorted) {
        const std::uint64_t t0 = trace::maybe_now();
        classify(w, msg.payload, wire.header_bytes, entries, wire.hdr);
        trace::complete(trace::Cat::kRoute, trace::kRebucket, t0,
                        entries.size(), wire.hdr.hop);
        return;
      }
      // Every entry ends here, grouped by local rank: as the segment
      // counts say, or as one run at one worker per process.
      SegmentHeader seg;
      if (wpp_ == 1) {
        seg.counts[0] = static_cast<std::uint32_t>(entries.size());
      } else {
        seg = parse_segments(bytes.subspan(sizeof(RoutedHeader)),
                             sizeof(Entry), wpp_);
      }
      scatter(w, msg.payload, wire.header_bytes, seg.counts,
              wire.hdr.priority());
      trace::instant(trace::Cat::kRoute, trace::kScatterSorted,
                     entries.size());
    }

    /// Hand this process's workers a rank-grouped batch of finals (see
    /// FinalHop::scatter_runs); every run counts as a sub-view delivery,
    /// whether delivered in place or regrouped.
    void scatter(rt::Worker& w, const util::PayloadRef& slab,
                 std::size_t offset, const std::uint32_t* counts, bool pri) {
      auto& d = *domain_;
      stats_.routed_subview_deliveries += d.finals_.scatter_runs(
          w, slab, offset, counts, pri || d.cfg_.expedited, stats_);
    }

    /// A batch that is not pre-sorted (a mesh hop's, a WPs final's, or a
    /// PP batch, whose `entries` start at byte `offset` of `slab`):
    /// classify every entry by (final local rank | next-hop slot) in ONE
    /// pass, then move each entry once. A batch whose entries are all
    /// finals for one local rank never copies: it is delivered in place
    /// or regrouped as one sub-view of the inbound slab. Otherwise every
    /// entry pays exactly one copy, aimed at its final resting place:
    /// forwards push straight into their next-hop slot's buffer (which
    /// ships one slab at cap entries), and finals group into a scratch
    /// slab sized to just them, so each other rank's regroup ships as a
    /// refcounted sub-view (the O(g + t) receiver delay of section III-C).
    void classify(rt::Worker& w, const util::PayloadRef& slab,
                  std::size_t offset, std::span<const Entry> entries,
                  const RoutedHeader& hdr) {
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
          // strictly higher. Anything else (a cycle, or an entry of a
          // final batch that does not end here) is a misroute: abort in
          // every build mode, as FinalHop::deliver_batch does.
          if (r.dim <= static_cast<std::int16_t>(hdr.dim)) {
            std::fprintf(stderr,
                         "TRAM misroute: entry dest=%d reached process %d "
                         "off dimension order (scheme=%s)\n",
                         e.dest, self_proc_, to_string(domain_->cfg_.scheme));
            std::abort();
          }
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
        scatter(w, slab, offset, bucket_counts_.data(), pri);
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
        if (sl.buf.size() >= cap) ship_slot(lane, s, /*from_flush=*/false);
      }

      // Finals: the scratch slab holds them grouped by local rank.
      scatter(w, scratch, 0, bucket_counts_.data(), pri);
    }

    TramDomain* domain_;
    rt::Worker* self_;
    ProcId self_proc_;
    int wpp_;  ///< workers per process, cached off the hot paths
    /// WW: a slot is a destination worker, not a Router slot.
    bool by_worker_;
    /// This process's row of the Router's precomputed table: the
    /// per-entry routing decision is row_[dst_proc], one indexed load.
    const Router::Route* row_;
    Lane bulk_;
    /// Sized only when cfg.priority_buffer_items > 0 (insert_priority
    /// falls back to the bulk lane otherwise).
    Lane pri_;
    /// classify scratch, reused across inbound batches (safe: handlers
    /// never nest — both transports enqueue rather than call through, so
    /// a ship inside a handler cannot re-enter it).
    std::vector<std::uint32_t> bucket_counts_;
    std::vector<std::uint32_t> bucket_starts_;
    std::vector<std::uint32_t> bucket_cursor_;
    std::atomic<std::uint64_t> pending_{0};
    WorkerTramStats stats_;
    std::uint64_t reserved_buffers_ = 0;
  };
};

}  // namespace tram::core
