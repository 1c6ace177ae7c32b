/// Microbenchmarks of the aggregation hot paths: per-scheme insert cost,
/// and PP's atomic slot-claim under contention (the "overhead of atomics"
/// the paper cites against PP). These run the buffer structures directly,
/// without the runtime, so the numbers isolate the aggregation layer.

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "core/pp_buffer.hpp"
#include "core/wire.hpp"

namespace {

using namespace tram;
using Entry = core::WireEntry<std::uint64_t>;

/// Baseline: the WW/WPs source-side path is a vector push + occasional
/// bulk clear.
void BM_WorkerBufferInsert(benchmark::State& state) {
  const std::size_t g = 1024;
  std::vector<Entry> buf;
  buf.reserve(g);
  std::uint64_t shipped = 0;
  Entry e{3, 42};
  for (auto _ : state) {
    buf.push_back(e);
    if (buf.size() >= g) {
      shipped += buf.size();
      buf.clear();
    }
  }
  benchmark::DoNotOptimize(shipped);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkerBufferInsert);

/// PP shared-buffer insert with range(0) contending threads. Throughput
/// per thread drops as contention rises — that is PP's atomics overhead.
void BM_PpBufferInsertContended(benchmark::State& state) {
  static core::PpBuffer<Entry>* buffer = nullptr;
  if (state.thread_index() == 0) {
    buffer = new core::PpBuffer<Entry>(1024);
  }
  Entry e{3, 42};
  std::uint64_t retries = 0;
  std::uint64_t sealed = 0;
  for (auto _ : state) {
    if (auto full = buffer->insert(e, retries)) sealed += full->size();
  }
  state.counters["cas_retries_per_insert"] = benchmark::Counter(
      static_cast<double>(retries),
      benchmark::Counter::kAvgIterations);
  benchmark::DoNotOptimize(sealed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  if (state.thread_index() == 0) {
    // Drain so the last partial buffer is not leaked logically.
    buffer->flush();
    delete buffer;
    buffer = nullptr;
  }
}
BENCHMARK(BM_PpBufferInsertContended)->Threads(1)->Threads(2)->Threads(4)->Threads(8);

/// PP flush racing inserts: measures flush-side cost under write load.
void BM_PpBufferFlushUnderLoad(benchmark::State& state) {
  core::PpBuffer<Entry> buffer(1024);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int i = 0; i < 3; ++i) {
    writers.emplace_back([&] {
      Entry e{1, 7};
      std::uint64_t r = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto sealed = buffer.insert(e, r);
        benchmark::DoNotOptimize(sealed);
      }
    });
  }
  for (auto _ : state) {
    auto partial = buffer.flush();
    benchmark::DoNotOptimize(partial);
  }
  stop.store(true);
  for (auto& t : writers) t.join();
}
BENCHMARK(BM_PpBufferFlushUnderLoad);

}  // namespace
