/// Trace core (src/trace/): ring wrap + drop accounting, cross-thread
/// merge ordering, Chrome trace-event JSON structural validity, and
/// schedule-determinism of the recorded sequences under DebugScheduler.
/// Runs in the TSan CI job: the recording path, the counter sampler, and
/// a traced machine run are all exercised under the race detector.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/machine.hpp"
#include "trace/trace.hpp"
#include "util/sync.hpp"

namespace {

using namespace tram;

#if TRAM_TRACE

/// Every test owns the (process-global) trace state: wipe on entry and
/// leave recording disabled on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_enabled(false);
    trace::clear();
  }
  void TearDown() override {
    trace::set_enabled(false);
    trace::clear();
    trace::set_ring_capacity(8192);  // restore the default for neighbors
  }
};

TEST_F(TraceTest, RingWrapsAndCountsDrops) {
  trace::set_ring_capacity(8);
  trace::set_enabled(true);
  trace::set_thread_name("wrap");
  for (std::uint64_t i = 0; i < 20; ++i) {
    trace::instant(trace::Cat::kRuntime, trace::kQdRound, i);
  }
  trace::set_enabled(false);

  const auto rings = trace::snapshot_rings();
  const trace::RingSnapshot* wrap = nullptr;
  for (const auto& r : rings) {
    if (r.name == "wrap") wrap = &r;
  }
  ASSERT_NE(wrap, nullptr);
  // 20 events into an 8-slot ring: the newest 8 survive, 12 are dropped
  // (and counted), survivors come back oldest-first.
  ASSERT_EQ(wrap->events.size(), 8u);
  EXPECT_EQ(wrap->dropped, 12u);
  EXPECT_EQ(trace::dropped_events(), 12u);
  for (std::size_t i = 0; i < wrap->events.size(); ++i) {
    EXPECT_EQ(wrap->events[i].a0, 12 + i);
    EXPECT_LE(i == 0 ? 0 : wrap->events[i - 1].ts_ns,
              wrap->events[i].ts_ns);
  }
}

TEST_F(TraceTest, NothingRecordedWhileDisabled) {
  trace::set_thread_name("ghost");  // no-op: tracing is off
  trace::instant(trace::Cat::kRoute, trace::kShip, 1);
  trace::phase("ghost phase");
  EXPECT_TRUE(trace::snapshot_rings().empty());
  EXPECT_EQ(trace::dropped_events(), 0u);
}

TEST_F(TraceTest, MergeOrdersAcrossThreadsAndPreservesRingOrder) {
  trace::set_enabled(true);
  auto writer = [](const char* name, std::uint64_t base) {
    trace::set_thread_name(name);
    for (std::uint64_t i = 0; i < 200; ++i) {
      trace::instant(trace::Cat::kRuntime, trace::kQdRound, base + i);
    }
  };
  std::thread a(writer, "ring a", 0);
  std::thread b(writer, "ring b", 1000);
  a.join();
  b.join();
  trace::set_enabled(false);

  const auto merged = trace::merged_events();
  ASSERT_EQ(merged.size(), 400u);
  std::map<std::uint32_t, std::vector<std::uint64_t>> per_ring;
  for (std::size_t i = 0; i < merged.size(); ++i) {
    // Global order is by timestamp...
    if (i > 0) {
      EXPECT_LE(merged[i - 1].e.ts_ns, merged[i].e.ts_ns);
    }
    per_ring[merged[i].ring].push_back(merged[i].e.a0);
  }
  // ...and within a ring the recording order survives the merge.
  ASSERT_EQ(per_ring.size(), 2u);
  for (const auto& [ring, seq] : per_ring) {
    ASSERT_EQ(seq.size(), 200u);
    for (std::size_t i = 1; i < seq.size(); ++i) {
      EXPECT_EQ(seq[i], seq[i - 1] + 1);
    }
  }
}

/// Minimal structural JSON scan: brace/bracket balance outside strings,
/// no dangling commas. Enough to catch every way the writer could emit a
/// file json.load would reject, without a JSON library in the repo.
void expect_structurally_valid_json(const std::string& text) {
  long depth_obj = 0, depth_arr = 0;
  bool in_string = false, escaped = false;
  char prev_significant = '\0';
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
        prev_significant = '"';
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_obj; break;
      case '}':
        --depth_obj;
        EXPECT_NE(prev_significant, ',') << "trailing comma before }";
        break;
      case '[': ++depth_arr; break;
      case ']':
        --depth_arr;
        EXPECT_NE(prev_significant, ',') << "trailing comma before ]";
        break;
      default: break;
    }
    ASSERT_GE(depth_obj, 0);
    ASSERT_GE(depth_arr, 0);
    if (!std::isspace(static_cast<unsigned char>(c))) prev_significant = c;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth_obj, 0);
  EXPECT_EQ(depth_arr, 0);
}

TEST_F(TraceTest, TracedMachineRunWritesLoadableChromeJson) {
  trace::set_enabled(true);
  trace::set_thread_name("main");
  trace::phase("exchange");

  // A small all-to-all: enough traffic for worker-busy spans on every
  // worker track plus comm pumps, and long enough (quiescence settle)
  // for the counter sampler to land samples.
  auto cfg = rt::RuntimeConfig::testing();
  rt::Machine machine(util::Topology(2, 2, 2), cfg);
  std::atomic<std::uint64_t> sum{0};
  const EndpointId ep = machine.register_endpoint(
      [&](rt::Worker&, rt::Message&& msg) {
        sum.fetch_add(rt::decode_payload<int>(msg)[0],
                      std::memory_order_relaxed);
      });
  const int W = machine.topology().workers();
  machine.run([&](rt::Worker& w) {
    for (int i = 0; i < 32; ++i) {
      for (WorkerId dst = 0; dst < W; ++dst) {
        if (dst == w.id()) continue;
        rt::Message msg;
        msg.endpoint = ep;
        msg.dst_worker = dst;
        msg.src_worker = w.id();
        msg.payload = rt::encode_payload<int>(1);
        w.send(std::move(msg));
      }
    }
  });
  trace::set_enabled(false);
  EXPECT_EQ(sum.load(), 32u * W * (W - 1));

  const std::string path = "trace_test_machine.json";
  ASSERT_TRUE(trace::write_chrome_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::remove(path.c_str());

  expect_structurally_valid_json(text);
  // Required Chrome trace-event keys and one of each record family.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);  // "M"
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);  // spans
  EXPECT_NE(text.find("\"ph\": \"C\""), std::string::npos);  // counters
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);  // phase mark
  EXPECT_NE(text.find("phase: exchange"), std::string::npos);
  // One span track per worker plus the sampler's counter ring.
  for (int w = 0; w < W; ++w) {
    EXPECT_NE(text.find("worker " + std::to_string(w)), std::string::npos);
  }
  EXPECT_NE(text.find("counters"), std::string::npos);

  // The per-phase summary renders from the same merged stream.
  trace::print_phase_summary(stdout);
}

/// An idle hook that sends to its own worker: enqueue() unparks the
/// worker, so the park that follows the hook in the same idle round
/// returns at once and the handler runs next. Read from worker 0's ring,
/// in recording order: the worker parked before the send (so a park span
/// could appear), and no `park` span lies between the send and the
/// handler.
TEST_F(TraceTest, HookSendToOwnWorkerSkipsThePark) {
  constexpr std::uint16_t kSent = 900;
  constexpr std::uint16_t kHandled = 901;
  trace::set_enabled(true);
  rt::Machine machine(util::Topology(2, 1, 1), rt::RuntimeConfig::testing());
  std::atomic<bool> handled{false};
  const EndpointId ep =
      machine.register_endpoint([&](rt::Worker&, rt::Message&&) {
        trace::instant(trace::Cat::kRuntime, kHandled);
        handled.store(true);
      });
  int hook_calls = 0;  // worker 0's thread only
  machine.worker(0).add_idle_hook([&](rt::Worker& w) {
    // 64 hook rounds reach past the spin and yield rounds into the parks.
    if (++hook_calls != 64) return;
    trace::instant(trace::Cat::kRuntime, kSent);
    rt::Message msg;
    msg.endpoint = ep;
    msg.dst_worker = w.id();
    msg.src_worker = w.id();
    w.send(std::move(msg));
  });
  machine.worker(0).add_pending_counter(
      [&] { return handled.load() ? 0u : 1u; });
  machine.run([](rt::Worker&) {});
  trace::set_enabled(false);

  const trace::RingSnapshot* ring = nullptr;
  const auto rings = trace::snapshot_rings();
  for (const auto& r : rings) {
    if (r.name == "worker 0") ring = &r;
  }
  ASSERT_NE(ring, nullptr);
  ASSERT_EQ(ring->dropped, 0u);
  int stage = 0;  // 0: before the send, 1: between, 2: after the handler
  int parks_before = 0;
  int parks_between = 0;
  for (const trace::Event& e : ring->events) {
    if (e.id == kSent) {
      ASSERT_EQ(stage, 0);
      stage = 1;
    } else if (e.id == kHandled) {
      ASSERT_EQ(stage, 1);
      stage = 2;
    } else if (e.id == trace::kPark) {
      EXPECT_EQ(e.kind, trace::Kind::kComplete);
      if (stage == 0) ++parks_before;
      if (stage == 1) ++parks_between;
    }
  }
  EXPECT_EQ(stage, 2);
  EXPECT_GE(parks_before, 1);
  EXPECT_EQ(parks_between, 0);
}

TEST_F(TraceTest, RecordedSequencesDeterministicUnderDebugScheduler) {
  // Two scheduled contenders bump a DebugSync atomic and trace every
  // observed value. The schedule is a pure function of the seed, so the
  // per-ring (id, a0) sequences must replay bit-for-bit.
  using Seq = std::map<std::string, std::vector<std::uint64_t>>;
  auto run_once = [](std::uint64_t seed) {
    trace::clear();
    trace::set_enabled(true);
    util::DebugSync::Atomic<std::uint64_t> shared{0};
    auto contender = [&](const char* name) {
      return [&, name] {
        trace::set_thread_name(name);
        for (int i = 0; i < 40; ++i) {
          const std::uint64_t seen = shared.fetch_add(1);
          trace::instant(trace::Cat::kRuntime, trace::kQdRound, seen);
        }
      };
    };
    util::DebugScheduler::run(seed,
                              {contender("ds a"), contender("ds b")});
    trace::set_enabled(false);
    Seq seq;
    for (const auto& r : trace::snapshot_rings()) {
      for (const auto& e : r.events) seq[r.name].push_back(e.a0);
    }
    return seq;
  };

  const Seq first = run_once(7);
  const Seq again = run_once(7);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first, again);
  std::uint64_t total = 0;
  for (const auto& [name, s] : first) total += s.size();
  EXPECT_EQ(total, 80u);
}

#else  // !TRAM_TRACE

TEST(TraceCompiledOut, WriterStillEmitsValidEmptyFile) {
  trace::set_enabled(true);  // records intent; captures nothing
  trace::instant(trace::Cat::kRoute, trace::kShip, 1);
  trace::phase("off");
  trace::set_enabled(false);
  EXPECT_TRUE(trace::snapshot_rings().empty());
  const std::string path = "trace_test_off.json";
  ASSERT_TRUE(trace::write_chrome_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

#endif  // TRAM_TRACE

}  // namespace
