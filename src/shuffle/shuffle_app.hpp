#pragma once
///
/// \file shuffle_app.hpp
/// \brief Out-of-core streaming shuffle: mmap'd sources → key-range mesh
///        routing → spill/merge sinks.
///
/// The first app in the repo whose working set is deliberately larger
/// than its memory budget — the workload the paper's O(d·N^(1/d))
/// live-buffer bound exists for. Data flow:
///
///   input file (mmap, chunked)                    sources
///        │ insert(owner(key), record)
///        ▼
///   route::Domain, any scheme (key-range partitioned)
///        │ deliver on owner worker
///        ▼
///   staging slice (budgeted PayloadPool)          sinks
///        │ slice full → sort → spill run
///        ▼
///   spill file (sorted runs + index)
///        │ at quiescence: loser-tree k-way merge
///        ▼
///   sorted output file (+ CRC64)
///
/// Memory-budget model: the app owns a private PayloadPool whose peak
/// outstanding bytes are the budget's ledger. With W workers each
/// staging one power-of-two slice of floor-pow2(budget/(W+1)) bytes,
/// the staging phase holds at most W slices and the merge phase adds at
/// most one slice of refill buffers (k cursors × floor-pow2(slice/k)),
/// so peak ≤ (W+1)·slice ≤ budget by construction — and the pool
/// high-water asserts it after the fact.
///
/// Verification is a pure function of the record multiset: the CRC64 of
/// the merged stream (records ordered by the total (key, payload) order,
/// per-worker outputs concatenated in worker-id order = globally sorted)
/// must match an in-memory reference sort, bit-identically across
/// aggregation schemes, transports, fault injection, and repeated runs.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/mapped_file.hpp"
#include "io/spill_file.hpp"
#include "route/domain.hpp"
#include "runtime/machine.hpp"
#include "shuffle/partitioner.hpp"
#include "shuffle/record.hpp"
#include "util/payload_pool.hpp"

namespace tram::shuffle {

struct ShuffleParams {
  /// Input file of packed Records (see write_random_input).
  std::string input_path;
  /// Merged sorted output. Empty = discard (CRC is still computed).
  std::string output_path;
  /// Directory for per-worker spill files.
  std::string spill_dir = ".";
  /// Staging + merge memory budget, machine-wide, in bytes.
  std::uint64_t mem_budget_bytes = 2ull << 20;
  /// Source-side mmap chunk size (rounded down to whole records).
  std::size_t chunk_bytes = 1 << 20;
  core::TramConfig tram;
  /// Pump progress() every this many source inserts.
  std::uint32_t progress_interval = 64;
};

struct ShuffleResult {
  rt::Machine::RunResult run;
  core::WorkerTramStats tram;
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  /// CRC64 over the merged sorted byte stream.
  std::uint64_t output_crc = 0;
  /// Total bytes written to spill files (including cascade re-writes).
  std::uint64_t spill_bytes = 0;
  /// Sorted runs spilled across all workers (first-level only).
  std::uint64_t spill_runs = 0;
  /// Largest k in any single k-way merge (memory tail included).
  std::uint64_t merge_fanin_max = 0;
  /// Staging-pool high-water mark — must stay ≤ mem_budget_bytes.
  std::uint64_t staging_peak_bytes = 0;
  std::uint64_t budget_bytes = 0;
  std::uint64_t max_reserved_buffers = 0;
  /// Merged stream was verified non-decreasing during the write.
  bool sorted = false;
  /// records preserved exactly once, output sorted, peak ≤ budget.
  bool verified = false;
};

class ShuffleApp {
 public:
  /// Throws if the input is not whole records or the budget is too small
  /// for one 128-byte slice per worker plus one for the merge.
  ShuffleApp(rt::Machine& machine, const ShuffleParams& params);

  /// One full shuffle (re-runnable; spill/output files are rewritten).
  ShuffleResult run(std::uint64_t seed = 1);

  std::uint64_t records_total() const noexcept { return records_total_; }
  std::uint64_t slice_bytes() const noexcept { return slice_bytes_; }

 private:
  struct Sink {
    util::PayloadRef buf;   ///< staging slice (slice_bytes_ capacity)
    std::size_t count = 0;  ///< records currently staged
    std::unique_ptr<io::SpillWriter> writer;  ///< lazy: nullptr until 1st spill
    std::uint64_t delivered = 0;
  };

  void deliver(rt::Worker& w, const Record& r);
  void spill(WorkerId w, Sink& s);
  std::string spill_path(WorkerId w, int pass) const;
  /// Merge one worker's runs + memory tail into `out`, accumulating the
  /// global CRC/sortedness state threaded through by run().
  void merge_worker(WorkerId w, std::FILE* out, ShuffleResult& res,
                    Crc64& crc, Record& prev, bool& any_out);

  rt::Machine& machine_;
  ShuffleParams params_;
  io::MappedFile input_;
  Partitioner partitioner_;
  std::uint64_t records_total_ = 0;
  std::uint64_t slice_bytes_ = 0;
  std::size_t slice_records_ = 0;
  util::PayloadPool pool_;
  std::vector<Sink> sinks_;
  route::Domain<Record> domain_;
};

/// Fill `path` with `records` pseudo-random records (splitmix64 keys,
/// payload = index, so all records are distinct and the sorted order is
/// unique). Returns bytes written.
std::uint64_t write_random_input(const std::string& path,
                                 std::uint64_t records, std::uint64_t seed);

/// Reference for small inputs: load the whole file, std::sort, CRC64.
std::uint64_t reference_sort_crc(const std::string& path);

}  // namespace tram::shuffle
