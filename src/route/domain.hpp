#pragma once
///
/// \file domain.hpp
/// \brief One aggregation API over every scheme.
///
///   route::Domain<Update> tram(machine, {.scheme = Scheme::WPs,
///                                        .buffer_items = 1024},
///                              [](rt::Worker& w, const Update& u) {
///                                /* delivered on the destination worker */
///                              });
///   machine.run([&](rt::Worker& self) {
///     auto t = tram.on(self);
///     t.insert(dest_worker, Update{...});   // aggregated per the scheme
///     ...
///     t.flush_all();                        // ship partial buffers
///   });
///
/// Built from a TramConfig, a Domain owns a core::TramDomain for the direct
/// schemes (None, WW, WPs, WsP, PP) or a RoutedDomain for Mesh2D/Mesh3D,
/// and forwards the contract the two share: insert, insert_priority,
/// flush_all and the stats reads. Applications hold one Domain and never
/// name the scheme family. It lives in route/ because that is the lowest
/// layer that sees both implementations (core/ must not include route/).
/// Each forwarded call costs one predictable branch, no virtual call.

#include <cstdint>
#include <functional>
#include <memory>

#include "core/config.hpp"
#include "core/tram.hpp"
#include "route/routed_domain.hpp"

namespace tram::route {

template <typename Item>
  requires std::is_trivially_copyable_v<Item>
class Domain {
  using Direct = core::TramDomain<Item>;
  using Routed = RoutedDomain<Item>;

 public:
  /// Runs on the destination worker's thread for every delivered item.
  using DeliverFn = std::function<void(rt::Worker&, const Item&)>;

  /// Per-worker aggregation endpoint: a view of the worker's handle in the
  /// domain built. Obtain via Domain::on(worker); insert/flush_all must be
  /// called from the owning worker's thread.
  class Handle {
   public:
    void insert(WorkerId dest, const Item& item) {
      if (routed_) {
        routed_->insert(dest, item);
      } else {
        direct_->insert(dest, item);
      }
    }
    /// Urgent item: rides the small expedited priority buffers when
    /// cfg.priority_buffer_items > 0, else falls back to insert().
    void insert_priority(WorkerId dest, const Item& item) {
      if (routed_) {
        routed_->insert_priority(dest, item);
      } else {
        direct_->insert_priority(dest, item);
      }
    }
    /// Ship every partially filled buffer.
    void flush_all() {
      if (routed_) {
        routed_->flush_all();
      } else {
        direct_->flush_all();
      }
    }

   private:
    friend class Domain;
    Handle(typename Direct::Handle* direct, typename Routed::Handle* routed)
        : direct_(direct), routed_(routed) {}
    typename Direct::Handle* direct_;
    typename Routed::Handle* routed_;
  };

  Domain(rt::Machine& machine, const core::TramConfig& cfg,
         DeliverFn deliver) {
    if (core::is_routed(cfg.scheme)) {
      routed_ = std::make_unique<Routed>(machine, cfg, std::move(deliver));
    } else {
      direct_ = std::make_unique<Direct>(machine, cfg, std::move(deliver));
    }
  }

  Domain(const Domain&) = delete;
  Domain& operator=(const Domain&) = delete;

  /// This worker's aggregation handle.
  Handle on(rt::Worker& w) {
    return routed_ ? Handle(nullptr, &routed_->on(w))
                   : Handle(&direct_->on(w), nullptr);
  }

  /// Merged stats across all workers (call after machine.run returns).
  core::WorkerTramStats aggregate_stats() const {
    return routed_ ? routed_->aggregate_stats() : direct_->aggregate_stats();
  }
  /// Largest number of distinct bulk buffers any single worker populated:
  /// O(N) for the direct schemes, O(d * N^(1/d)) for the routed ones.
  std::uint64_t max_reserved_buffers() const {
    return routed_ ? routed_->max_reserved_buffers()
                   : direct_->max_reserved_buffers();
  }
  /// Bytes reserved in aggregation buffers machine-wide (compare with the
  /// section III-C formulas).
  std::uint64_t allocated_buffer_bytes() const {
    return routed_ ? routed_->allocated_buffer_bytes()
                   : direct_->allocated_buffer_bytes();
  }
  /// Zero all counters between benchmark trials (machine must be idle).
  void reset_stats() {
    if (routed_) {
      routed_->reset_stats();
    } else {
      direct_->reset_stats();
    }
  }
  /// The virtual mesh of a routed scheme; nullptr for a direct one.
  const VirtualMesh* mesh() const noexcept {
    return routed_ ? &routed_->mesh() : nullptr;
  }

 private:
  /// Exactly one of the two is built, per cfg.scheme.
  std::unique_ptr<Direct> direct_;
  std::unique_ptr<Routed> routed_;
};

}  // namespace tram::route
