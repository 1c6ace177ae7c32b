#pragma once
///
/// \file phold.hpp
/// \brief Synthetic PHOLD for optimistic PDES (paper Fig. 18).
///
/// Logical processes (LPs) are block-distributed over workers. Each event
/// carries a virtual timestamp; processing an event at an LP spawns one
/// successor event at a random LP, with the timestamp advanced by
/// lookahead + Exp(mean). Following the paper, the simulation engine is a
/// place-holder: no real rollbacks — an event arriving with a timestamp
/// below the LP's last processed timestamp is counted as an out-of-order
/// ("wasted"/"rejected") update, the proxy for rollback pressure in an
/// optimistic engine. Message latency directly controls how often remote
/// events arrive late, so lower-latency aggregation schemes show fewer
/// wasted updates (PP wins by >5% in the paper).
///
/// Every event carries its own RNG stream: the successor's delay and
/// destination are drawn from the event itself, not the processing
/// worker, so the chain structure — and with it the machine-wide event
/// count — is a pure function of the run seed. Delivery interleaving
/// cannot perturb it, which lets the routed benches cross-check event
/// counts bit-for-bit against a direct-scheme run (only the out-of-order
/// rate, the latency-sensitive metric, varies with the scheme).
///
/// The app holds one core::TramDomain, so Scheme::Mesh2D/Mesh3D run the same
/// workload over the multi-hop message path (bench/fig_routed_phold.cpp
/// sweeps direct and routed side by side).

#include <cstdint>
#include <vector>

#include "core/tram.hpp"
#include "graph/csr.hpp"
#include "runtime/machine.hpp"
#include "util/spinlock.hpp"

namespace tram::apps {

struct PholdParams {
  int lps_per_worker = 16;
  int init_events_per_lp = 4;
  /// Virtual end time: events scheduled past it are not regenerated.
  double end_time = 500.0;
  double mean_delay = 1.0;
  double lookahead = 0.1;
  /// Probability that an event's successor targets a remote LP.
  double remote_prob = 0.8;
  core::TramConfig tram;
  std::uint32_t progress_interval = 16;
};

struct PholdResult {
  rt::Machine::RunResult run;
  core::WorkerTramStats tram;
  std::uint64_t events_processed = 0;
  /// Events that arrived with a timestamp below the LP's clock.
  std::uint64_t ooo_events = 0;
  double ooo_pct = 0.0;
  /// Largest count of live source-side buffers on any one worker — O(N)
  /// for the direct schemes, O(d * N^(1/d)) for the routed ones.
  std::uint64_t max_reserved_buffers = 0;
};

class PholdApp {
 public:
  PholdApp(rt::Machine& machine, const PholdParams& params);
  PholdResult run(std::uint64_t seed = 1);

 private:
  struct Event {
    double ts;
    std::uint32_t lp;  // global LP id
    /// Seed of the RNG stream the successor's delay/destination are drawn
    /// from (see file comment: chain structure is delivery-order free).
    std::uint64_t stream;
  };

  struct WorkerState {
    std::vector<double> lp_clock;  // last processed timestamp per local LP
    std::uint64_t processed = 0;
    std::uint64_t ooo = 0;
  };

  void handle_event(rt::Worker& w, const Event& ev);

  rt::Machine& machine_;
  PholdParams params_;
  graph::BlockPartition part_;  // LPs over workers
  core::TramDomain<Event> domain_;
  std::vector<util::Padded<WorkerState>> state_;
};

}  // namespace tram::apps
