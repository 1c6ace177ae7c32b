/// util::Parker: a pending unpark is consumed without sleeping, a park
/// nobody unparks times out, and no wake-up is lost when producers push
/// and unpark while the consumer drains and parks. No assertion reads the
/// wall clock: Parker::Wake says how each park ended.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/mpsc_queue.hpp"
#include "util/parker.hpp"

namespace {

using tram::util::MpscQueue;
using tram::util::Parker;
using Wake = Parker::Wake;

TEST(Parker, UnparkBeforeParkReturnsWithoutSleeping) {
  Parker p;
  p.unpark();
  p.unpark();  // wake-ups coalesce: one pending, not two
  EXPECT_EQ(p.park_for(Parker::kForever), Wake::kPending);
  EXPECT_EQ(p.park_for(1'000), Wake::kTimedOut);
}

TEST(Parker, ParkThatNobodyUnparksIsNotNotified) {
  Parker p;
  EXPECT_EQ(p.park_for(50'000), Wake::kTimedOut);
  EXPECT_EQ(p.park_for(0), Wake::kTimedOut);
}

TEST(Parker, UnparkFromAnotherThreadEndsAParkWithNoTimeout) {
  Parker p;
  std::atomic<int> how{-1};
  std::thread sleeper(
      [&] { how.store(static_cast<int>(p.park_for(Parker::kForever))); });
  p.unpark();
  sleeper.join();
  // Before the park: pending; during it: unparked. Never a timeout.
  EXPECT_NE(how.load(), static_cast<int>(Wake::kTimedOut));
}

/// 4 producers each push 100k items, unparking the consumer after every
/// push; the consumer drains, then parks for up to 10 s. A park that
/// began after every producer had finished and times out while items wait
/// in the queue is a lost wake-up. While producers run, a timed-out park
/// proves nothing: a producer's late FUTEX_WAKE may end a later park
/// early (Wake::kTimedOut covers spurious wake-ups), so there a lost
/// wake-up shows as a 10 s stall and total == kTotal is the check.
TEST(Parker, NoLostWakeupUnderProducerStress) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 100'000;
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kProducers) * kPerProducer;
  MpscQueue<int> q;
  Parker parker;
  std::atomic<int> finished{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(i);
        parker.unpark();
      }
      finished.fetch_add(1);
    });
  }
  std::uint64_t total = 0;
  int lost = 0;
  for (;;) {
    while (q.try_pop()) ++total;
    if (total == kTotal) break;
    // Read before the park: every push and unpark of a finished producer
    // happened before it.
    const bool all_done = finished.load() == kProducers;
    if (parker.park_for(10'000'000'000) == Wake::kTimedOut && all_done) {
      if (!q.empty_approx()) {
        ++lost;
      } else {
        break;  // nothing more will arrive: total is short
      }
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(lost, 0);
  EXPECT_EQ(total, kTotal);
}

}  // namespace
