#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/mpsc_queue.hpp"

namespace {

using tram::util::MpscQueue;

TEST(MpscQueue, EmptyPopsNothing) {
  MpscQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_TRUE(q.empty_approx());
}

TEST(MpscQueue, SingleThreadFifo) {
  MpscQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(int{i});
  EXPECT_FALSE(q.empty_approx());
  for (int i = 0; i < 100; ++i) {
    auto v = q.try_pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.try_pop().has_value());
  EXPECT_TRUE(q.empty_approx());
}

TEST(MpscQueue, DestructorReleasesPending) {
  // Leak-checked by ASan builds: destroy with elements still queued.
  auto* q = new MpscQueue<std::vector<int>>();
  for (int i = 0; i < 50; ++i) q->push(std::vector<int>(100, i));
  delete q;
}

TEST(MpscQueue, MoveOnlyElements) {
  MpscQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  auto v = q.try_pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 5);
}

TEST(MpscQueue, PerProducerFifoUnderContention) {
  // Each producer pushes an increasing sequence tagged with its id; the
  // consumer checks that every producer's elements arrive in order and
  // that nothing is lost or duplicated.
  constexpr int kProducers = 6;
  constexpr std::uint64_t kPerProducer = 200'000;
  MpscQueue<std::uint64_t> q;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        q.push((static_cast<std::uint64_t>(p) << 32) | i);
      }
    });
  }
  std::vector<std::uint64_t> next(kProducers, 0);
  std::uint64_t received = 0;
  while (received < kProducers * kPerProducer) {
    if (auto v = q.try_pop()) {
      const auto p = static_cast<int>(*v >> 32);
      const std::uint64_t seq = *v & 0xffffffffu;
      ASSERT_LT(p, kProducers);
      ASSERT_EQ(seq, next[p]) << "producer " << p << " out of order";
      ++next[p];
      ++received;
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(q.try_pop().has_value());
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
}

TEST(MpscQueue, ConsumerRacesProducersWithPayloads) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50'000;
  MpscQueue<std::vector<int>> q;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        q.push(std::vector<int>{p, i});
      }
    });
  }
  int received = 0;
  while (received < kProducers * kPerProducer) {
    if (auto v = q.try_pop()) {
      ASSERT_EQ(v->size(), 2u);
      ++received;
    }
  }
  for (auto& t : producers) t.join();
}

}  // namespace
