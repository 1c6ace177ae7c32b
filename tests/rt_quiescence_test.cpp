///
/// \file rt_quiescence_test.cpp
/// \brief The rule that ends a run, checked against workers that keep the
/// pending-counter contract.
///
/// Machine::qd_sample and Machine::qd_ends are what quiescence_wait runs
/// between its sleeps, and note_sent, note_handled and note_quiet are what
/// workers call. Here model workers drive them on a real Machine whose
/// threads never start: each keeps items in a pending counter registered
/// on the machine, ships them as messages, and buffers each one again in
/// the handler while its ttl lasts. A worker may also hand an item,
/// without a send, to a buffer counted on worker 0 that either worker
/// ships, as SSSP's deferred updates reach the PP scheme's shared buffer.
/// All of it keeps the contract at Worker::add_pending_counter. A
/// detector samples until qd_ends, and an oracle that counts live items
/// (buffered or in a message) fails the seed when one still exists then.
///
/// In a TRAM_SYNC_DEBUG build the QD counters, the model's counters and
/// its stop flag are DebugSync atomics, so every seed is one reproducible
/// DebugScheduler interleaving of the steps the detector can tell apart. Elsewhere the scheduler cannot run the
/// model (a thread that reaches no sync point keeps the token forever), so
/// the same model runs on plain threads, as util_sync_test's pool case
/// does. The model workers go quiet once and never go busy, so the sweep
/// checks the rule without the quiet gate: the gate only adds a conjunct
/// to a clean sample.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/machine.hpp"
#include "util/mpsc_queue.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "util/timebase.hpp"
#include "util/topology.hpp"

namespace {

using namespace tram;
using rt::Machine;
using QdSample = rt::Machine::QdSample;

TEST(Quiescence, EndsOnTwoConsecutiveCleanSamplesWithEqualSent) {
  const QdSample clean{.quiet = true, .clean = true, .handled = 5, .sent = 5};
  const QdSample clean_after_send{
      .quiet = true, .clean = true, .handled = 6, .sent = 6};
  const QdSample unhandled{
      .quiet = true, .clean = false, .handled = 4, .sent = 5};
  const QdSample busy{.quiet = false, .clean = false, .handled = 5, .sent = 5};
  struct Case {
    QdSample prev, cur;
    bool ends;
  };
  const Case cases[] = {
      {QdSample{}, clean, false},  // a run's first sample
      {clean, clean, true},
      {clean, clean_after_send, false},
      {clean_after_send, clean, false},
      {unhandled, clean, false},
      {clean, unhandled, false},
      {busy, clean, false},
      {clean, busy, false},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    EXPECT_EQ(Machine::qd_ends(cases[i].prev, cases[i].cur), cases[i].ends)
        << "case " << i;
  }
}

constexpr int kWorkers = 2;
/// Worker 0 starts with kShortItems items of ttl kShortTtl and worker 1
/// with one item of ttl kLongTtl, which most runs end with alone: each of
/// its visits to worker 1 crosses the hand-off that runs against the scan.
constexpr int kShortItems = 3;
constexpr int kShortTtl = 3;
constexpr int kLongTtl = 24;
/// Only a rule that never ends reaches it.
constexpr std::uint64_t kDeadlineNs = 10'000'000'000;

/// One seed's machine, model workers and oracle.
class Model {
 public:
  explicit Model(std::uint64_t seed)
      : machine_(util::Topology(1, 1, kWorkers),
                 rt::RuntimeConfig::testing()) {
    cells_[0].buffer.assign(kShortItems, kShortTtl);
    cells_[1].buffer.assign(1, kLongTtl);
    for (int w = 0; w < kWorkers; ++w) {
      Cell& c = cells_[w];
      c.rng = util::Xoshiro256::for_stream(seed, static_cast<unsigned>(w));
      c.held.store(c.buffer.size());
      machine_.worker(w).add_pending_counter(
          [&c] { return c.held.load(std::memory_order_acquire); });
      if (w == 0) {
        // Registered on worker 0 after its own counter, so a sample reads
        // it before worker 1's: worker 1's hand-offs run against the scan.
        machine_.worker(w).add_pending_counter(
            [this] { return shared_.held.load(std::memory_order_acquire); });
      }
    }
    live_.store(kShortItems + 1);
  }

  /// Model worker w: handle an inbound item if there is one, then on a
  /// seeded draw move one buffered item on (worker 0 ships it to worker 1,
  /// worker 1 hands it to the shared buffer), ship one from the shared
  /// buffer to a seeded worker, or do nothing, until the detector stops
  /// the run. The idle half of the draws spreads the workers' steps over
  /// the detector's scans.
  void work(int w) {
    Cell& c = cells_[w];
    machine_.note_quiet(true);
    while (!stop_.load(std::memory_order_acquire)) {
      if (const auto ttl = c.inbox.try_pop()) {
        // The raise comes before the message counts as handled.
        if (*ttl > 0) {
          c.buffer.push_back(*ttl - 1);
          c.held.fetch_add(1, std::memory_order_relaxed);
        } else {
          live_.fetch_sub(1, std::memory_order_relaxed);
        }
        machine_.note_handled();
      }
      const std::uint64_t draw = c.rng.below(4);
      if (draw == 0 && !c.buffer.empty()) {
        const int ttl = c.buffer.back();
        c.buffer.pop_back();
        if (w == 0) {
          ship(c.held, ttl, 1);
        } else {
          // A hand-off without a send: the receiving counter rises before
          // the giving one drops.
          shared_.held.fetch_add(1, std::memory_order_release);
          {
            std::lock_guard<std::mutex> g(shared_.mu);
            shared_.items.push_back(ttl);
          }
          c.held.fetch_sub(1, std::memory_order_release);
        }
      } else if (draw == 1) {
        // Either worker ships the shared buffer, as PP's flush does.
        std::optional<int> ttl;
        {
          std::lock_guard<std::mutex> g(shared_.mu);
          if (!shared_.items.empty()) {
            ttl = shared_.items.back();
            shared_.items.pop_back();
          }
        }
        if (ttl) {
          ship(shared_.held, *ttl, static_cast<int>(c.rng.below(kWorkers)));
        }
      }
      // Lets the model progress when its threads share a CPU.
      std::this_thread::yield();
    }
  }

  /// Sample until the rule ends the run, then read the oracle.
  void detect() {
    const std::uint64_t deadline = util::now_ns() + kDeadlineNs;
    QdSample prev;
    while (util::now_ns() < deadline) {
      const QdSample cur = machine_.qd_sample();
      if (Machine::qd_ends(prev, cur)) {
        ended_ = true;
        live_at_end_ = live_.load(std::memory_order_relaxed);
        break;
      }
      prev = cur;
      std::this_thread::yield();
    }
    stop_.store(true, std::memory_order_release);
  }

  bool ended() const { return ended_; }
  int live_at_end() const { return live_at_end_; }

 private:
  using Counter = util::DefaultSync::Atomic<std::uint64_t>;
  struct Cell {
    // Items in a message, by ttl. RealSync: the queue adds no sync point,
    // and what the detector reads is the counters.
    util::MpscQueue<int, util::RealSync> inbox;
    std::vector<int> buffer;  // items held, owner only
    Counter held{0};          // buffer.size()
    util::Xoshiro256 rng;
  };
  /// A buffer every worker fills and ships, counted on worker 0 (as the
  /// PP scheme's shared buffer is).
  struct Shared {
    // A critical section with no sync point: under the scheduler no
    // other model thread runs inside it.
    std::mutex mu;
    std::vector<int> items;  // under mu
    Counter held{0};         // items.size() plus items being shipped
  };

  /// Send one item to worker dst, then lower the counter it left.
  void ship(Counter& held, int ttl, int dst) {
    // The counter drops only after the send is counted.
    machine_.note_sent();
    cells_[dst].inbox.push(ttl);
    held.fetch_sub(1, std::memory_order_release);
  }

  Machine machine_;
  std::array<Cell, kWorkers> cells_;
  Shared shared_;
  util::DefaultSync::Atomic<bool> stop_{false};
  /// The oracle: items buffered or in a message. A plain atomic, so it
  /// adds no sync point to the schedule.
  std::atomic<int> live_{0};
  bool ended_ = false;  // detector only
  int live_at_end_ = 0;
};

TEST(Quiescence, NeverEndsWhileAnItemOrAMessageExists) {
  constexpr std::uint64_t kSeeds = util::kSyncDebugBuild ? 2000 : 200;
  std::uint64_t failed = 0;
  std::uint64_t first_failed = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Model m(seed);
    if constexpr (util::kSyncDebugBuild) {
      util::DebugScheduler::run(seed, {[&m] { m.work(0); },
                                       [&m] { m.work(1); },
                                       [&m] { m.detect(); }});
    } else {
      std::thread w0([&m] { m.work(0); });
      std::thread w1([&m] { m.work(1); });
      m.detect();
      w0.join();
      w1.join();
    }
    ASSERT_TRUE(m.ended()) << "seed " << seed << ": quiescence never ended";
    if (m.live_at_end() != 0 && failed++ == 0) first_failed = seed;
  }
  EXPECT_EQ(failed, 0u) << failed << " of " << kSeeds
                        << " seeds ended with an item live; first seed "
                        << first_failed;
}

}  // namespace
