/// Substrate microbenchmarks: the queues every message crosses.
///
/// Each hot-path benchmark is templated over the synchronization seam and
/// registered twice — once against RealSync (the shipping memory orders,
/// including the relaxations: relaxed advisory loads, release-only
/// refcount decrements) and once against ConservativeSync, a policy local
/// to this benchmark that runs everything seq_cst. The paired rows are the
/// measured before/after for every relaxation: a relaxation that does not
/// beat its _SeqCst twin is not carrying its weight.

#include <benchmark/benchmark.h>

#include <atomic>
#include <thread>

#include "util/mpsc_queue.hpp"
#include "util/payload_pool.hpp"
#include "util/spsc_ring.hpp"
#include "util/sync.hpp"

namespace {

using namespace tram;

/// Everything seq_cst: the measured "before" for each relaxation (the
/// atomics of util::DebugSync without its scheduler yields).
struct ConservativeSync {
  static constexpr bool kDebug = false;
  template <typename T>
  using Atomic = util::sync_detail::SeqCstAtomic<T, /*kYield=*/false>;
  static void fence(std::memory_order) noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
};

template <typename Sync>
void BM_SpscRingPushPop(benchmark::State& state) {
  util::SpscRing<std::uint64_t, Sync> ring(1024);
  std::uint64_t v = 0;
  for (auto _ : state) {
    ring.try_push(v++);
    benchmark::DoNotOptimize(ring.try_pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRingPushPop<util::RealSync>)->Name("BM_SpscRingPushPop");
BENCHMARK(BM_SpscRingPushPop<ConservativeSync>)
    ->Name("BM_SpscRingPushPop_SeqCst");

template <typename Sync>
void BM_SpscRingThroughput(benchmark::State& state) {
  // Producer thread floods; the timed loop consumes.
  util::SpscRing<std::uint64_t, Sync> ring(4096);
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::uint64_t v = 0;
    while (!stop.load(std::memory_order_relaxed)) ring.try_push(v++);
  });
  std::uint64_t popped = 0;
  for (auto _ : state) {
    if (auto x = ring.try_pop()) {
      benchmark::DoNotOptimize(*x);
      ++popped;
    }
  }
  stop.store(true);
  producer.join();
  state.SetItemsProcessed(static_cast<std::int64_t>(popped));
}
BENCHMARK(BM_SpscRingThroughput<util::RealSync>)
    ->Name("BM_SpscRingThroughput");
BENCHMARK(BM_SpscRingThroughput<ConservativeSync>)
    ->Name("BM_SpscRingThroughput_SeqCst");

/// The idle-heuristic load this PR relaxed from acquire: workers poll it
/// on every scheduler turn, so its cost is pure overhead.
template <typename Sync>
void BM_SpscRingSizeApprox(benchmark::State& state) {
  util::SpscRing<std::uint64_t, Sync> ring(1024);
  for (int i = 0; i < 17; ++i) ring.try_push(std::uint64_t{1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.size_approx());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpscRingSizeApprox<util::RealSync>)
    ->Name("BM_SpscRingSizeApprox");
BENCHMARK(BM_SpscRingSizeApprox<ConservativeSync>)
    ->Name("BM_SpscRingSizeApprox_SeqCst");

template <typename Sync>
void BM_MpscQueue(benchmark::State& state) {
  // range(0) producers flood an MPSC queue; the timed loop consumes.
  util::MpscQueue<std::uint64_t, Sync> q;
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int i = 0; i < state.range(0); ++i) {
    producers.emplace_back([&] {
      std::uint64_t v = 0;
      while (!stop.load(std::memory_order_relaxed)) q.push(v++);
    });
  }
  std::uint64_t popped = 0;
  for (auto _ : state) {
    if (auto x = q.try_pop()) {
      benchmark::DoNotOptimize(*x);
      ++popped;
    }
  }
  stop.store(true);
  for (auto& t : producers) t.join();
  while (q.try_pop()) {
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(popped));
}
BENCHMARK(BM_MpscQueue<util::RealSync>)
    ->Name("BM_MpscQueue")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);
BENCHMARK(BM_MpscQueue<ConservativeSync>)
    ->Name("BM_MpscQueue_SeqCst")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4);

/// The consumer-side idle probe (relaxed after this PR): measured alone
/// because workers call it between every dispatch batch.
template <typename Sync>
void BM_MpscEmptyApprox(benchmark::State& state) {
  util::MpscQueue<std::uint64_t, Sync> q;
  q.push(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.empty_approx());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MpscEmptyApprox<util::RealSync>)->Name("BM_MpscEmptyApprox");
BENCHMARK(BM_MpscEmptyApprox<ConservativeSync>)
    ->Name("BM_MpscEmptyApprox_SeqCst");

/// Refcount churn on the shipping PayloadRef (release-decrement +
/// acquire-fence-on-zero after this PR). No seam parameter — the pool is
/// hardwired to DefaultSync — but paired with the copy cost it isolates:
/// copy+drop of a shared ref is two refcount ops and nothing else.
void BM_PayloadRefCopyDrop(benchmark::State& state) {
  util::PayloadPool pool;
  util::PayloadRef base = pool.acquire(256);
  for (auto _ : state) {
    util::PayloadRef copy = base;
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PayloadRefCopyDrop);

}  // namespace
