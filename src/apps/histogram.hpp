#pragma once
///
/// \file histogram.hpp
/// \brief Bale-suite histogram benchmark (paper Figs. 8-11).
///
/// A histogram table is block-distributed over all worker PEs; every PE
/// fires `updates_per_worker` increments at uniformly random global bins
/// through TramLib and flushes at the end. No reply traffic exists, so the
/// benchmark isolates aggregation *overhead* (total time, message counts);
/// latency is irrelevant here by design (paper section III-D).
///
/// The app holds one core::TramDomain, so every scheme runs the same code:
/// Scheme::Mesh2D/Mesh3D take the multi-hop message path under the same
/// delivery contract (bench/fig_routed_histogram.cpp sweeps direct and
/// routed side by side).

#include <cstdint>
#include <vector>

#include "core/tram.hpp"
#include "graph/csr.hpp"
#include "runtime/machine.hpp"

namespace tram::apps {

struct HistogramParams {
  std::uint64_t updates_per_worker = 100'000;
  std::uint64_t bins_per_worker = 1 << 16;
  core::TramConfig tram;
  /// Pump progress() every this many inserts.
  std::uint32_t progress_interval = 64;
};

struct HistogramResult {
  rt::Machine::RunResult run;
  core::WorkerTramStats tram;
  /// Sum over the whole distributed table after the run.
  std::uint64_t table_total = 0;
  /// Largest count of live source-side buffers on any one worker — O(N)
  /// for the direct schemes, O(d * N^(1/d)) for the routed ones.
  std::uint64_t max_reserved_buffers = 0;
  /// Bytes reserved in aggregation buffers machine-wide, to compare with
  /// core::buffer_bytes_per_process (section III-C).
  std::uint64_t allocated_buffer_bytes = 0;
  /// table_total must equal workers * updates_per_worker.
  bool verified = false;
};

class HistogramApp {
 public:
  HistogramApp(rt::Machine& machine, const HistogramParams& params);

  /// One timed run (construct a fresh app per tram configuration).
  HistogramResult run(std::uint64_t seed = 1);

  /// Bin counts owned by one worker (for tests).
  const std::vector<std::uint64_t>& table_slice(WorkerId w) const {
    return tables_[static_cast<std::size_t>(w)];
  }

 private:
  rt::Machine& machine_;
  HistogramParams params_;
  graph::BlockPartition part_;
  core::TramDomain<std::uint64_t> domain_;
  std::vector<std::vector<std::uint64_t>> tables_;
};

}  // namespace tram::apps
