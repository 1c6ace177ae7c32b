#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/pp_buffer.hpp"
#include "util/sync.hpp"

namespace {

using tram::core::PpBuffer;

struct Entry {
  std::uint64_t tag;
  std::uint64_t writer;
  std::uint64_t check;  // tag ^ writer ^ salt: detects torn entries
  static constexpr std::uint64_t kSalt = 0xabcdef0123456789ULL;
  static Entry make(std::uint64_t tag, std::uint64_t writer) {
    return {tag, writer, tag ^ writer ^ kSalt};
  }
  bool intact() const { return check == (tag ^ writer ^ kSalt); }
};

TEST(PpBuffer, SingleThreadSealsExactlyAtCapacity) {
  PpBuffer<Entry> buf(4);
  std::uint64_t retries = 0;
  EXPECT_FALSE(buf.insert(Entry::make(0, 0), retries).has_value());
  EXPECT_FALSE(buf.insert(Entry::make(1, 0), retries).has_value());
  EXPECT_FALSE(buf.insert(Entry::make(2, 0), retries).has_value());
  EXPECT_EQ(buf.size_approx(), 3u);
  const auto sealed = buf.insert(Entry::make(3, 0), retries);
  ASSERT_TRUE(sealed.has_value());
  ASSERT_EQ(sealed->size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*sealed)[i].tag, i);
    EXPECT_TRUE((*sealed)[i].intact());
  }
  EXPECT_EQ(buf.size_approx(), 0u);  // reopened
  EXPECT_EQ(retries, 0u);
}

TEST(PpBuffer, FlushReturnsPartialAndReopens) {
  PpBuffer<Entry> buf(8);
  std::uint64_t retries = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    buf.insert(Entry::make(i, 1), retries);
  }
  const auto partial = buf.flush();
  ASSERT_TRUE(partial.has_value());
  EXPECT_EQ(partial->size(), 3u);
  EXPECT_FALSE(buf.flush().has_value());  // now empty
  // Buffer reusable after flush.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto sealed = buf.insert(Entry::make(i, 2), retries);
    EXPECT_EQ(sealed.has_value(), i == 7);
  }
}

TEST(PpBuffer, FlushOnEmptyIsNoop) {
  PpBuffer<Entry> buf(8);
  EXPECT_FALSE(buf.flush().has_value());
  EXPECT_FALSE(buf.flush().has_value());
}

TEST(PpBuffer, CapacityOneSealsEveryInsert) {
  PpBuffer<Entry> buf(1);
  std::uint64_t retries = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto sealed = buf.insert(Entry::make(i, 0), retries);
    ASSERT_TRUE(sealed.has_value());
    EXPECT_EQ(sealed->size(), 1u);
    EXPECT_EQ((*sealed)[0].tag, i);
  }
}

TEST(PpBuffer, ManyEpochsReuseTheSameSlots) {
  // 1000 seal/reopen cycles: the epoch in the state word must keep claim
  // CASes ABA-safe across reuse.
  PpBuffer<Entry> buf(16);
  std::uint64_t retries = 0;
  std::uint64_t total = 0;
  for (int epoch = 0; epoch < 1000; ++epoch) {
    for (std::uint64_t i = 0; i < 16; ++i) {
      const auto sealed = buf.insert(Entry::make(i, 9), retries);
      if (sealed) {
        total += sealed->size();
        for (const auto& e : *sealed) ASSERT_TRUE(e.intact());
      }
    }
  }
  EXPECT_EQ(total, 16'000u);
}

/// The load-bearing property: with concurrent writers and flushers, every
/// inserted entry comes out exactly once, intact.
TEST(PpBuffer, ConcurrentExactlyOnceDelivery) {
  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 150'000;
  for (const std::uint32_t cap : {32u, 257u, 1024u}) {
    PpBuffer<Entry> buf(cap);
    std::mutex sink_mu;
    std::vector<Entry> sink;
    std::atomic<bool> stop{false};
    // Sealed/flushed results are pooled batches; copy them out so the
    // slab recycles immediately.
    auto drain = [&](auto&& v) {
      std::lock_guard<std::mutex> g(sink_mu);
      sink.insert(sink.end(), v.begin(), v.end());
    };
    std::vector<std::thread> writers;
    for (int wdx = 0; wdx < kWriters; ++wdx) {
      writers.emplace_back([&, wdx] {
        std::uint64_t retries = 0;
        for (std::uint64_t i = 0; i < kPerWriter; ++i) {
          auto sealed = buf.insert(
              Entry::make(i, static_cast<std::uint64_t>(wdx)), retries);
          if (sealed) drain(std::move(*sealed));
        }
      });
    }
    std::thread flusher([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (auto partial = buf.flush()) drain(std::move(*partial));
      }
    });
    for (auto& t : writers) t.join();
    stop.store(true);
    flusher.join();
    if (auto last = buf.flush()) drain(std::move(*last));

    ASSERT_EQ(sink.size(), kWriters * kPerWriter) << "cap=" << cap;
    std::vector<std::vector<char>> seen(
        kWriters, std::vector<char>(kPerWriter, 0));
    for (const Entry& e : sink) {
      ASSERT_TRUE(e.intact()) << "torn entry, cap=" << cap;
      ASSERT_LT(e.writer, static_cast<std::uint64_t>(kWriters));
      ASSERT_LT(e.tag, kPerWriter);
      ASSERT_EQ(seen[e.writer][e.tag], 0) << "duplicate, cap=" << cap;
      seen[e.writer][e.tag] = 1;
    }
  }
}

TEST(PpBuffer, ConcurrentFlushersSerialize) {
  PpBuffer<Entry> buf(64);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> drained{0};
  std::vector<std::thread> threads;
  // 2 writers + 3 flushers all racing.
  for (int wdx = 0; wdx < 2; ++wdx) {
    threads.emplace_back([&, wdx] {
      std::uint64_t retries = 0;
      for (std::uint64_t i = 0; i < 100'000; ++i) {
        if (auto sealed =
                buf.insert(Entry::make(i, static_cast<std::uint64_t>(wdx)),
                           retries)) {
          drained += sealed->size();
        }
      }
    });
  }
  for (int f = 0; f < 3; ++f) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (auto partial = buf.flush()) drained += partial->size();
      }
    });
  }
  threads[0].join();
  threads[1].join();
  stop.store(true);
  for (std::size_t i = 2; i < threads.size(); ++i) threads[i].join();
  if (auto last = buf.flush()) drained += last->size();
  EXPECT_EQ(drained.load(), 200'000u);
}

/// With 4 writers on one buffer, some claim CASes must fail and be
/// counted: the paper's "overhead of atomics" made visible. The buffer runs
/// on DebugSync under the seeded scheduler, so every atomic operation may
/// hand the token to another writer between a claim's load and its CAS;
/// the fixed seed replays the same interleaving on every host, however
/// many cores it has.
TEST(PpBuffer, CasRetriesReportedUnderContention) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 64;
  PpBuffer<Entry, tram::util::DebugSync> buf(16);
  std::uint64_t retries[kWriters] = {};
  std::uint64_t sealed_items[kWriters] = {};
  std::vector<std::function<void()>> writers;
  for (int wdx = 0; wdx < kWriters; ++wdx) {
    writers.emplace_back([&, wdx] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        if (auto s = buf.insert(
                Entry::make(i, static_cast<std::uint64_t>(wdx)),
                retries[wdx])) {
          sealed_items[wdx] += s->size();
        }
      }
    });
  }
  tram::util::DebugScheduler::run(/*seed=*/7, std::move(writers));
  std::uint64_t total_retries = 0;
  std::uint64_t total_sealed = 0;
  for (int wdx = 0; wdx < kWriters; ++wdx) {
    total_retries += retries[wdx];
    total_sealed += sealed_items[wdx];
  }
  EXPECT_GT(total_retries, 0u);
  // 256 inserts fill 16 buffers of 16 exactly: every entry was sealed.
  EXPECT_EQ(total_sealed, kWriters * kPerWriter);
}

}  // namespace
