#pragma once
///
/// \file index_gather.hpp
/// \brief Bale-suite index-gather benchmark (paper Figs. 12-13).
///
/// Every PE issues `requests_per_worker` random-index requests into a
/// block-distributed table; the owner responds with the stored value. Both
/// request and response streams run through TramLib (each its own
/// route::Domain, so the routed schemes serve them too).
/// Because a requester observes its own send and receive timestamps, the
/// request->response round trip measures aggregation latency with no clock
/// skew — exactly why the paper uses IG as its latency probe.

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "route/domain.hpp"
#include "runtime/machine.hpp"
#include "util/latency_histogram.hpp"
#include "util/spinlock.hpp"

namespace tram::apps {

struct IgParams {
  std::uint64_t requests_per_worker = 100'000;
  std::uint64_t table_entries_per_worker = 1 << 16;
  core::TramConfig tram;
  std::uint32_t progress_interval = 64;
};

struct IgResult {
  rt::Machine::RunResult run;
  core::WorkerTramStats tram;  // both domains merged
  core::WorkerTramStats req_stats;
  core::WorkerTramStats resp_stats;
  /// Request -> response round-trip latency, merged across workers.
  util::LatencyHistogram latency;
  std::uint64_t responses = 0;
  std::uint64_t wrong_values = 0;
  bool verified = false;
};

class IndexGatherApp {
 public:
  IndexGatherApp(rt::Machine& machine, const IgParams& params);
  IgResult run(std::uint64_t seed = 1);

  /// The deterministic table value stored at a global index.
  static std::uint64_t value_at(std::uint64_t index) {
    return index * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL;
  }

 private:
  struct Request {
    std::uint64_t birth_ns;
    std::uint64_t index;
    WorkerId requester;
  };
  struct Response {
    std::uint64_t birth_ns;
    std::uint64_t index;
    std::uint64_t value;
  };

  /// Per-worker mutable state, each written by its owning worker.
  struct WorkerState {
    util::LatencyHistogram latency;
    std::uint64_t responses = 0;
    std::uint64_t wrong_values = 0;
  };

  rt::Machine& machine_;
  IgParams params_;
  graph::BlockPartition part_;
  std::vector<std::vector<std::uint64_t>> table_;
  route::Domain<Request> requests_;
  route::Domain<Response> responses_;
  std::vector<util::Padded<WorkerState>> state_;
};

}  // namespace tram::apps
