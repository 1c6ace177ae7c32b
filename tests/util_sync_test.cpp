///
/// \file util_sync_test.cpp
/// \brief Seeded-interleaving tests for the synchronization seam.
///
/// The primitives are instantiated against DebugSync explicitly, so every
/// atomic operation is a deterministic context-switch point regardless of
/// how the binary was configured: the scheduler explores an adversarial
/// interleaving per seed and the invariants (exactly-once pop, FIFO,
/// mutual exclusion, balanced refcounts) must hold in all of them. A
/// failing seed replays identically — it is a reproducer, not a flake.
///
/// The PayloadPool scenario is the one exception: the pool is hardwired to
/// DefaultSync (that is the point — the shipping refcount code is what
/// runs under the scheduler in a TRAM_SYNC_DEBUG build), so it runs under
/// the scheduler only when kSyncDebugBuild and as a plain two-thread
/// stress otherwise. In a RealSync build, putting scheduler-managed
/// threads on the pool's RealSync spinlock could deadlock: the token
/// holder would spin forever on a lock whose owner is descheduled.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "util/mpsc_queue.hpp"
#include "util/payload_pool.hpp"
#include "util/spinlock.hpp"
#include "util/spsc_ring.hpp"
#include "util/sync.hpp"

namespace tram::util {
namespace {

constexpr std::uint64_t kSeeds = 20;

TEST(DebugScheduler, RunsEveryFunctionToCompletion) {
  bool ran[3] = {false, false, false};
  DebugScheduler::run(1, {[&] { ran[0] = true; },
                          [&] { ran[1] = true; },
                          [&] { ran[2] = true; }});
  EXPECT_TRUE(ran[0] && ran[1] && ran[2]);
}

TEST(DebugScheduler, SameSeedSameSchedule) {
  auto scenario = [] {
    MpscQueue<int, DebugSync> q;
    DebugScheduler::run(
        42, {[&] {
               for (int i = 0; i < 50; ++i) q.push(i);
             },
             [&] {
               for (int i = 0; i < 50; ++i) q.push(100 + i);
             },
             [&] {
               int got = 0;
               while (got < 100) {
                 if (q.try_pop()) ++got;
               }
             }});
    return DebugScheduler::switches();
  };
  const std::uint64_t a = scenario();
  const std::uint64_t b = scenario();
  EXPECT_EQ(a, b) << "same seed must replay the same interleaving";
  EXPECT_GT(a, 0u) << "a 3-thread run with contention must context-switch";
}

TEST(UtilSync, MpscExactlyOncePopUnderSeededInterleavings) {
  constexpr int kPerProducer = 40;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    MpscQueue<int, DebugSync> q;
    std::vector<int> popped;
    DebugScheduler::run(
        seed,
        {[&] {
           for (int i = 0; i < kPerProducer; ++i) q.push(i);
         },
         [&] {
           for (int i = 0; i < kPerProducer; ++i) q.push(1000 + i);
         },
         [&] {
           while (popped.size() < 2 * kPerProducer) {
             if (auto v = q.try_pop()) popped.push_back(*v);
           }
         }});
    ASSERT_EQ(popped.size(), 2u * kPerProducer) << "seed " << seed;
    // Exactly once: every pushed value seen once, none invented.
    std::map<int, int> seen;
    for (int v : popped) seen[v]++;
    for (int i = 0; i < kPerProducer; ++i) {
      EXPECT_EQ(seen[i], 1) << "seed " << seed << " value " << i;
      EXPECT_EQ(seen[1000 + i], 1) << "seed " << seed << " value "
                                   << 1000 + i;
    }
    // Per-producer FIFO (the queue's ordering contract).
    int last_a = -1, last_b = -1;
    for (int v : popped) {
      if (v < 1000) {
        EXPECT_GT(v, last_a) << "seed " << seed;
        last_a = v;
      } else {
        EXPECT_GT(v, last_b) << "seed " << seed;
        last_b = v;
      }
    }
    EXPECT_FALSE(q.try_pop().has_value());
  }
}

TEST(UtilSync, SpscRingFifoExactlyOnceUnderSeededInterleavings) {
  constexpr int kCount = 60;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SpscRing<int, DebugSync> ring(4);  // tiny: constant full/empty races
    int next_expected = 0;
    DebugScheduler::run(
        seed, {[&] {
                 for (int i = 0; i < kCount; ++i) {
                   while (!ring.try_push(int{i})) {
                   }
                 }
               },
               [&] {
                 while (next_expected < kCount) {
                   if (auto v = ring.try_pop()) {
                     ASSERT_EQ(*v, next_expected) << "seed " << seed;
                     ++next_expected;
                   }
                 }
               }});
    EXPECT_EQ(next_expected, kCount) << "seed " << seed;
    EXPECT_FALSE(ring.try_pop().has_value());
  }
}

TEST(UtilSync, SpinlockMutualExclusionUnderSeededInterleavings) {
  constexpr int kPerThread = 50;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    BasicSpinlock<DebugSync> mu;
    int counter = 0;        // non-atomic: torn only if exclusion fails
    bool in_critical = false;
    bool overlap = false;
    auto contender = [&] {
      for (int i = 0; i < kPerThread; ++i) {
        mu.lock();
        if (in_critical) overlap = true;
        in_critical = true;
        ++counter;
        in_critical = false;
        mu.unlock();
      }
    };
    DebugScheduler::run(seed, {contender, contender, contender});
    EXPECT_EQ(counter, 3 * kPerThread) << "seed " << seed;
    EXPECT_FALSE(overlap) << "seed " << seed;
  }
}

/// Refcount/subref churn: three threads share one slab through copies and
/// sub-views; afterwards the pool must see the slab returned exactly once.
/// Under TRAM_SYNC_DEBUG the shipping refcount code itself yields at every
/// inc/dec, so the scheduler drives the copy/release races; otherwise this
/// is a plain concurrent stress of the same invariant.
TEST(UtilSync, PayloadPoolRefcountBalancedUnderChurn) {
  PayloadPool pool;
  {
    PayloadRef base = pool.acquire(256);
    auto churn = [&base] {
      for (int i = 0; i < 30; ++i) {
        PayloadRef copy = base;              // fetch_add
        PayloadRef view = copy.subref(8, 16);  // fetch_add
        PayloadRef view2 = view;             // fetch_add
        // Destructors: three release-decrements per iteration.
      }
    };
    if constexpr (kSyncDebugBuild) {
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        DebugScheduler::run(seed, {churn, churn, churn});
        EXPECT_TRUE(base.unique()) << "seed " << seed;
      }
    } else {
      std::vector<std::thread> threads;
      for (int t = 0; t < 3; ++t) threads.emplace_back(churn);
      for (auto& t : threads) t.join();
      EXPECT_TRUE(base.unique());
    }
    EXPECT_EQ(pool.stats().outstanding, 1u);
  }
  const auto s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u) << "slab leaked or double-freed";
  EXPECT_EQ(s.releases, s.acquires);
}

/// The scheduler must be a no-op for code it does not manage: DebugSync
/// primitives still work on plain threads (this is what a TRAM_SYNC_DEBUG
/// build relies on for the rest of the runtime).
TEST(UtilSync, DebugSyncPrimitivesWorkOutsideScheduler) {
  MpscQueue<int, DebugSync> q;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) q.push(i);
  });
  int got = 0;
  while (got < 1000) {
    if (auto v = q.try_pop()) {
      ASSERT_EQ(*v, got);
      ++got;
    }
  }
  producer.join();
  EXPECT_TRUE(q.empty_approx());
}

}  // namespace
}  // namespace tram::util
