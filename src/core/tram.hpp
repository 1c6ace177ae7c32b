#pragma once
///
/// \file tram.hpp
/// \brief TramLib: the shared memory-aware message aggregation library.
///
/// TramDomain implements the direct schemes. Applications reach it, or
/// route::RoutedDomain for the routed schemes, through route::Domain
/// (route/domain.hpp), whose SPMD API mirrors the paper's Charm++ library.
/// At initialization the user passes the delivery function ("a pointer to
/// the charm++ object and function to which data needs to be delivered");
/// inserts check the destination buffer's fill against g and ship a message
/// when full; flushed messages are resized to their actual occupancy; idle
/// workers flush automatically when flush_on_idle is set.
///
/// The message path is zero-copy end to end: inserts encode entries in
/// place into pooled slabs (core::EntryBuffer / core::PpBuffer), a full
/// buffer ships by moving its slab handle into the Message payload, and
/// every multi-worker receiver hands sibling workers their runs as
/// refcounted views of one slab (core::FinalHop::scatter_runs).
///
/// The five schemes differ only in the buffer granularity and the
/// destination-side routing — see scheme.hpp and the paper's Figs. 4-7.

#include <atomic>
#include <cassert>
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
#include "core/tram_stats.hpp"
#include "core/wire.hpp"
#include "runtime/machine.hpp"
#include "runtime/message.hpp"
#include "runtime/worker.hpp"
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
        topo_(machine.topology()) {
    if (is_routed(cfg_.scheme)) {
      throw std::invalid_argument(
          "TramDomain: routed scheme (use route::RoutedDomain)");
    }
    if (topo_.workers_per_proc() > kMaxLocalWorkers) {
      throw std::invalid_argument("TramDomain: workers_per_proc exceeds "
                                  "kMaxLocalWorkers");
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
  Handle& handle(WorkerId w) { return *handles_[static_cast<std::size_t>(w)]; }

  const TramConfig& config() const noexcept { return cfg_; }
  rt::Machine& machine() noexcept { return machine_; }

  /// Merged stats across all workers (call after machine.run returns).
  WorkerTramStats aggregate_stats() const {
    WorkerTramStats total;
    for (const auto& h : handles_) total.merge(h->stats_);
    return total;
  }

  /// Actual bytes reserved in aggregation buffers, machine-wide (compare
  /// with the section III-C formulas). Counts each destination buffer a
  /// worker ever populated at its full g — the slab itself cycles through
  /// the payload pool, but the footprint charge matches the paper's model.
  std::uint64_t allocated_buffer_bytes() const {
    std::uint64_t total = 0;
    for (const auto& h : handles_) {
      total += h->reserved_buffers_ * std::uint64_t{cfg_.buffer_items} *
               sizeof(Entry);
    }
    for (const auto& pp : pp_states_) {
      if (pp) {
        total += static_cast<std::uint64_t>(pp->buffers.size()) *
                 cfg_.buffer_items * sizeof(Entry);
      }
    }
    return total;
  }

  /// Largest number of distinct aggregation buffers any single worker ever
  /// populated — grows with the destination count (workers for WW,
  /// processes for WPs/WsP; 0 for PP, whose buffers are process-shared).
  /// The routed schemes bound the same metric by O(d * N^(1/d)).
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

  void register_endpoints() {
    // Final-hop delivery: a batch of entries addressed to this worker.
    finals_.endpoint = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          finals_.deliver_batch(w, rt::decode_payload<Entry>(m),
                                handle(w.id()).stats_);
        });
    // Process-addressed unsorted batch (WPs, PP): the receiving PE groups
    // items by destination worker and local-sends each group.
    // (decode_payload aborts on a truncated payload in every build mode.)
    ep_grouped_ = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          auto entries = rt::decode_payload<Entry>(m);
          handle(w.id()).regroup_and_deliver(w, entries);
        });
    // Process-addressed pre-sorted batch (WsP): scatter segments.
    ep_segmented_ = machine_.register_endpoint(
        [this](rt::Worker& w, rt::Message&& m) {
          handle(w.id()).scatter_segments(w, m);
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
  EndpointId ep_grouped_ = -1;
  EndpointId ep_segmented_ = -1;
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

      switch (d.cfg_.scheme) {
        case Scheme::None: {
          // One message per item: the unaggregated baseline.
          rt::Message m;
          m.endpoint = d.finals_.endpoint;
          m.dst_worker = dest;
          m.src_worker = self_->id();
          m.expedited = d.cfg_.expedited;
          m.payload = rt::encode_payload<Entry>(e);
          ++stats_.msgs_shipped;
          stats_.occupancy_at_ship.add(1.0);
          self_->send(std::move(m));
          return;
        }
        case Scheme::WW:
        case Scheme::WPs:
        case Scheme::WsP:
          push(bulk_, e);
          break;
        case Scheme::PP: {
          const ProcId dp = d.topo_.proc_of_worker(dest);
          auto* pp = d.pp_states_[self_proc_].get();
          pp->pending.fetch_add(1, std::memory_order_release);
          auto sealed = pp->buffers[static_cast<std::size_t>(dp)]->insert(
              e, stats_.pp_cas_retries);
          if (sealed) {
            ship_pp(dp, std::move(*sealed), /*from_flush=*/false);
          }
          break;
        }
        case Scheme::Mesh2D:
        case Scheme::Mesh3D:
          assert(false && "unreachable: TramDomain rejects routed schemes");
          break;
      }
    }

    /// Aggregate an urgent item (the paper's future-work prioritization).
    /// Routed through small, expedited buffers so it ships and is
    /// delivered well ahead of bulk insert() traffic. Falls back to
    /// insert() when priority buffering is not configured.
    void insert_priority(WorkerId dest, const Item& item) {
      if (pri_.bufs.empty()) {
        insert(dest, item);
        return;
      }
      ++stats_.items_inserted;
      ++stats_.priority_items;
      push(pri_, Entry{dest, item});
    }

    /// Ship every partially filled buffer ("flush accumulated items").
    void flush_all() {
      // Priority buffers first: urgent stragglers leave before bulk.
      for (Lane* lane : {&pri_, &bulk_}) {
        for (std::size_t k = 0; k < lane->bufs.size(); ++k) {
          if (!lane->bufs[k].empty()) ship(*lane, k, /*from_flush=*/true);
        }
      }
      auto& d = *domain_;
      if (d.cfg_.scheme != Scheme::PP) return;
      auto* pp = d.pp_states_[self_proc_].get();
      for (ProcId dp = 0; dp < d.topo_.procs(); ++dp) {
        auto partial = pp->buffers[static_cast<std::size_t>(dp)]->flush();
        if (partial && !partial->empty()) {
          ship_pp(dp, std::move(*partial), /*from_flush=*/true);
        }
      }
    }

    const WorkerTramStats& stats() const noexcept { return stats_; }
    /// Items currently buffered at this worker (excludes PP shared state).
    std::uint64_t pending() const noexcept {
      return pending_.load(std::memory_order_acquire);
    }

   private:
    friend class TramDomain;

    /// One set of worker-local aggregation buffers, indexed by
    /// destination worker under WW and by destination process otherwise.
    /// bulk_ serves WW, WPs and WsP at g items; pri_ serves insert_priority
    /// at cfg.priority_buffer_items, always expedited.
    struct Lane {
      std::vector<EntryBuffer<Entry>> bufs;
      std::uint32_t cap = 0;
      bool pri = false;
    };

    Handle(TramDomain& d, rt::Worker& self)
        : domain_(&d),
          self_(&self),
          self_proc_(d.topo_.proc_of_worker(self.id())) {
      const TramConfig& cfg = d.cfg_;
      const auto dests = static_cast<std::size_t>(
          cfg.scheme == Scheme::WW ? d.topo_.workers() : d.topo_.procs());
      if (cfg.scheme == Scheme::WW || cfg.scheme == Scheme::WPs ||
          cfg.scheme == Scheme::WsP) {
        bulk_ = Lane{std::vector<EntryBuffer<Entry>>(dests),
                     cfg.buffer_items, false};
        if (cfg.scheme == Scheme::WsP) {
          // The ship sorts the slab in place behind this header.
          for (auto& buf : bulk_.bufs) {
            buf.set_header_bytes(sizeof(SegmentHeader));
          }
        }
      }
      if (cfg.priority_buffer_items > 0 && cfg.scheme != Scheme::None) {
        // Priority buffers are always worker-local (even under PP: sharing
        // would reintroduce the very latency the priority path removes).
        pri_ = Lane{std::vector<EntryBuffer<Entry>>(dests),
                    cfg.priority_buffer_items, true};
      }
    }

    /// Buffer an entry toward its destination in `lane`; ship at cap.
    /// Priority buffers stay out of the reserved-buffer footprint, which
    /// charges the bulk buffers the section III-C formulas model.
    void push(Lane& lane, const Entry& e) {
      const auto k = static_cast<std::size_t>(
          domain_->cfg_.scheme == Scheme::WW
              ? e.dest
              : domain_->topo_.proc_of_worker(e.dest));
      auto& buf = lane.bufs[k];
      if (!lane.pri && !buf.ever_acquired()) ++reserved_buffers_;
      buf.push(e, lane.cap);
      pending_.fetch_add(1, std::memory_order_release);
      if (buf.size() >= lane.cap) ship(lane, k, /*from_flush=*/false);
    }

    /// Ship buffer k of `lane`, handing its slab off as the payload. WW
    /// sends it straight to destination worker k. WsP bulk permutes its
    /// slab into rank-grouped order (core/grouping.hpp) behind the
    /// SegmentHeader reserved at construction. Everything else goes to
    /// destination process k unsorted, for the receiver to group;
    /// priority batches are small, so WsP skips its source sort there.
    void ship(Lane& lane, std::size_t k, bool from_flush) {
      auto& d = *domain_;
      auto& buf = lane.bufs[k];
      const std::size_t n = buf.size();
      const bool direct = d.cfg_.scheme == Scheme::WW;
      rt::Message m;
      m.src_worker = self_->id();
      m.expedited = lane.pri || d.cfg_.expedited;
      if (direct) {
        m.endpoint = d.finals_.endpoint;
        m.dst_worker = static_cast<WorkerId>(k);
      } else if (d.cfg_.scheme == Scheme::WsP && !lane.pri) {
        SegmentHeader header;
        permute_sort_segments(
            buf.data(), n, d.topo_.workers_per_proc(),
            [&](WorkerId w) { return d.topo_.local_rank(w); }, header);
        std::memcpy(buf.header(), &header, sizeof header);
        m.endpoint = d.ep_segmented_;
      } else {
        m.endpoint = d.ep_grouped_;
      }
      m.payload = buf.take();
      account_ship(n, from_flush);
      if (lane.pri) ++stats_.priority_msgs;
      if (direct) {
        self_->send(std::move(m));
      } else {
        self_->send_to_proc(static_cast<ProcId>(k), std::move(m));
      }
      pending_.fetch_sub(n, std::memory_order_release);
    }

    /// PP ship: the sealed/flushed shared slab, handed off as-is.
    void ship_pp(ProcId dp, util::PooledBatch<Entry>&& batch,
                 bool from_flush) {
      auto& d = *domain_;
      const std::size_t n = batch.size();
      rt::Message m;
      m.endpoint = d.ep_grouped_;
      m.src_worker = self_->id();
      m.expedited = d.cfg_.expedited;
      m.payload = std::move(batch).take_ref();
      account_ship(n, from_flush);
      self_->send_to_proc(dp, std::move(m));
      d.pp_states_[self_proc_]->pending.fetch_sub(
          n, std::memory_order_release);
    }

    void account_ship(std::size_t n, bool from_flush) {
      ++stats_.msgs_shipped;
      if (from_flush) ++stats_.flush_msgs;
      stats_.occupancy_at_ship.add(static_cast<double>(n));
    }

    /// Destination-side grouping (WPs, PP): one count pass and one copy
    /// pass regroup the batch by destination local rank into a scratch
    /// slab sized to it, whose runs then scatter like a WsP batch (the
    /// O(g + t) delay of section III-C, one pool slab per batch).
    void regroup_and_deliver(rt::Worker& w, std::span<const Entry> entries) {
      auto& d = *domain_;
      const int t = d.topo_.workers_per_proc();
      if (t == 1) {
        d.finals_.deliver_batch(w, entries, stats_);
        return;
      }
      std::uint32_t counts[kMaxLocalWorkers] = {};
      for (const Entry& e : entries) counts[d.topo_.local_rank(e.dest)]++;
      std::uint32_t next[kMaxLocalWorkers];
      std::uint32_t acc = 0;
      for (int r = 0; r < t; ++r) {
        next[r] = acc;
        acc += counts[r];
      }
      util::PayloadRef scratch =
          util::PayloadPool::global().acquire(entries.size_bytes());
      auto* grouped = reinterpret_cast<Entry*>(scratch.data());
      for (const Entry& e : entries) {
        grouped[next[d.topo_.local_rank(e.dest)]++] = e;
      }
      d.finals_.scatter_runs(w, scratch, 0, counts, d.cfg_.expedited, stats_);
    }

    /// Destination-side scatter (WsP): the source pre-sorted the slab, so
    /// its segments scatter straight from the inbound slab, no copy.
    void scatter_segments(rt::Worker& w, const rt::Message& msg) {
      auto& d = *domain_;
      const int t = d.topo_.workers_per_proc();
      const SegmentHeader header =
          parse_segments(msg.payload.span(), sizeof(Entry), t);
      d.finals_.scatter_runs(w, msg.payload, sizeof header, header.counts,
                             d.cfg_.expedited, stats_);
    }

    TramDomain* domain_;
    rt::Worker* self_;
    ProcId self_proc_;
    Lane bulk_;
    Lane pri_;
    std::atomic<std::uint64_t> pending_{0};
    WorkerTramStats stats_;
    std::uint64_t reserved_buffers_ = 0;
  };
};

}  // namespace tram::core
