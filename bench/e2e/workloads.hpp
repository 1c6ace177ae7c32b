#pragma once
///
/// \file workloads.hpp
/// \brief The benchmark's workloads, as seen by the tram_e2e driver.
///
/// A workload owns one simulated machine and an open-loop index-gather on
/// it. The driver constructs it, runs one warm-up trial, then timed trials
/// until its time budget is spent; between timed trials it constructs a
/// second instance several times to sample set-up time. Every number a
/// trial reports comes from outside the library: the benchmark times its
/// calls into rt::Machine and the aggregation domains, and reads the
/// public counters afterwards.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/tram_stats.hpp"
#include "runtime/machine.hpp"
#include "stats.hpp"
#include "util/payload_pool.hpp"

namespace tram::e2e {

/// Where one construction's time went (the per-layer split of setup_s).
struct SetupSplit {
  double inputs_s = 0.0;   // the table requests read
  double machine_s = 0.0;  // rt::Machine constructor
  double app_s = 0.0;      // generators and aggregation domains
  double total() const { return inputs_s + machine_s + app_s; }
};

/// One request, as its requester saw it (traced pass only): the three
/// segments of its latency share the request id.
struct RequestRecord {
  std::uint64_t due_ns = 0;
  std::uint64_t issue_ns = 0;
  std::uint64_t serve_ns = 0;
  std::uint64_t done_ns = 0;
  std::uint32_t id = 0;
  std::int32_t requester = 0;
};

/// Everything one trial produced.
struct Trial {
  /// rt::Machine::RunResult::wall_s: start barrier to quiescence.
  double wall_s = 0.0;
  /// util::now_ns() just after the run returned (anchors the QD tail).
  std::uint64_t return_ns = 0;
  /// Responses delivered.
  std::uint64_t items = 0;
  /// Requests issued, and those whose response was missing, duplicated or
  /// wrong.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Request due -> response delivered, and the segments of that time.
  FineHist latency;
  FineHist late;       // due -> issued (generator behind schedule)
  FineHist req_path;   // issued -> served at the owner
  FineHist resp_path;  // served -> response delivered
  /// Traced pass only.
  std::vector<RequestRecord> requests;

  core::WorkerTramStats tram;
  rt::Machine::RunResult run;
  core::FaultStats fault;
  util::PayloadPool::Stats pool;
  std::uint64_t max_reserved_buffers = 0;
};

enum class Phase {
  kWarmup,  // first trial after construction: reported, never gated
  kTimed,   // the trials the end-to-end metrics come from
  kTraced,  // one trial with the tracing layer on
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs, machine and application from scratch, dropping any
  /// previous set first.
  virtual SetupSplit construct() = 0;
  /// One trial. `seed` derives every random choice the trial makes. The
  /// warm-up and traced trials run shorter (the traced trial's event rings
  /// must hold every span), and the traced one keeps per-request records.
  virtual Trial run(std::uint64_t seed, Phase phase) = 0;
  virtual const rt::Machine& machine() const = 0;
};

struct WorkloadSpec {
  const char* name;
  /// One line: why the workload is in the benchmark.
  const char* why;
  /// Builds the workload for a seed; `smoke` selects the small sizes.
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, bool smoke);
};

const std::vector<WorkloadSpec>& workload_specs();

}  // namespace tram::e2e
