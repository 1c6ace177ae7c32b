/// Trace-record microbenchmarks: the cost of one event on the hot path.
///
/// Three rows bracket the tracing layer's overhead claim:
///   BM_TraceRecordEnabled     — recording on: timestamp + 32-byte ring store
///   BM_TraceRecordDisabled    — recording off: one predicted branch
///   BM_TraceRecordCompiledOut — hand-inlined copy of the -DTRAM_TRACE=OFF
///                               stub expansion (empty body), the floor the
///                               disabled row must sit on
/// The disabled row is the one production pays for in untraced runs; it
/// should be indistinguishable from the compiled-out row. The enabled row
/// prices a span (maybe_now + complete), the unit the runtime/core/fault
/// layers record per batch — not per item.

#include <benchmark/benchmark.h>

#include "trace/trace.hpp"

namespace {

using namespace tram;

void BM_TraceRecordEnabled(benchmark::State& state) {
  trace::clear();
  trace::set_ring_capacity(4096);
  trace::set_enabled(true);
  trace::set_thread_name("bench");
  std::uint64_t n = 0;
  for (auto _ : state) {
    const std::uint64_t t0 = trace::maybe_now();
    benchmark::DoNotOptimize(n);
    trace::complete(trace::Cat::kRuntime, trace::kWorkerBusy, t0, ++n);
  }
  trace::set_enabled(false);
  trace::clear();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRecordEnabled);

void BM_TraceRecordDisabled(benchmark::State& state) {
  trace::set_enabled(false);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const std::uint64_t t0 = trace::maybe_now();
    benchmark::DoNotOptimize(n);
    trace::complete(trace::Cat::kRuntime, trace::kWorkerBusy, t0, ++n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRecordDisabled);

// The -DTRAM_TRACE=OFF expansion, spelled out: maybe_now() is constexpr 0
// and complete() is an empty inline. Kept as a separate row (rather than a
// separate build) so one binary carries the whole comparison.
inline constexpr std::uint64_t stub_maybe_now() noexcept { return 0; }
inline void stub_complete(trace::Cat, std::uint16_t, std::uint64_t,
                          std::uint64_t, std::uint32_t = 0) noexcept {}

void BM_TraceRecordCompiledOut(benchmark::State& state) {
  std::uint64_t n = 0;
  for (auto _ : state) {
    const std::uint64_t t0 = stub_maybe_now();
    benchmark::DoNotOptimize(n);
    stub_complete(trace::Cat::kRuntime, trace::kWorkerBusy, t0, ++n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceRecordCompiledOut);

void BM_TraceInstantEnabled(benchmark::State& state) {
  trace::clear();
  trace::set_ring_capacity(4096);
  trace::set_enabled(true);
  trace::set_thread_name("bench");
  std::uint64_t n = 0;
  for (auto _ : state) {
    trace::instant(trace::Cat::kRoute, trace::kShip, ++n, 7);
  }
  trace::set_enabled(false);
  trace::clear();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceInstantEnabled);

}  // namespace

BENCHMARK_MAIN();
