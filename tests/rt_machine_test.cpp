#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include <array>
#include <atomic>
#include <set>
#include <vector>

#include "runtime/idle.hpp"
#include "runtime/machine.hpp"
#include "trace/trace.hpp"
#include "util/parker.hpp"
#include "util/spinlock.hpp"
#include "util/timebase.hpp"
#include "util/topology.hpp"

namespace {

using namespace tram;
using rt::Machine;
using rt::Message;
using rt::RuntimeConfig;
using rt::Worker;
using util::Topology;

RuntimeConfig testing_cfg() { return RuntimeConfig::testing(); }

TEST(PayloadCodec, RoundTripsPods) {
  struct Pod {
    int a;
    double b;
  };
  std::vector<Pod> items{{1, 2.5}, {3, 4.5}};
  const auto bytes = rt::encode_payload(std::span<const Pod>(items));
  EXPECT_EQ(bytes.size(), 2 * sizeof(Pod));
  const auto back = rt::decode_payload<Pod>(bytes);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].a, 1);
  EXPECT_DOUBLE_EQ(back[1].b, 4.5);
  // Single-item convenience overload.
  const auto one = rt::encode_payload<int>(42);
  EXPECT_EQ(rt::decode_payload<int>(one)[0], 42);
}

TEST(Machine, RunsMainOnEveryWorkerExactlyOnce) {
  Machine m(Topology(2, 2, 2), testing_cfg());
  std::vector<util::Padded<int>> calls(8);
  m.run([&](Worker& w) { calls[w.id()].value++; });
  for (const auto& c : calls) EXPECT_EQ(c.value, 1);
}

TEST(Machine, LocalAndRemoteDelivery) {
  Machine m(Topology(2, 2, 2), testing_cfg());
  std::atomic<int> sum{0};
  const EndpointId ep = m.register_endpoint([&](Worker& w, Message&& msg) {
    sum += rt::decode_payload<int>(msg)[0] * (w.id() + 1);
  });
  m.run([&](Worker& w) {
    if (w.id() != 0) return;
    for (WorkerId dst = 0; dst < 8; ++dst) {
      Message msg;
      msg.endpoint = ep;
      msg.dst_worker = dst;
      msg.src_worker = 0;
      msg.payload = rt::encode_payload<int>(1);
      w.send(std::move(msg));
    }
  });
  EXPECT_EQ(sum.load(), 1 + 2 + 3 + 4 + 5 + 6 + 7 + 8);
}

TEST(Machine, SendToProcReachesSomeWorkerOfThatProc) {
  Machine m(Topology(2, 2, 2), testing_cfg());
  std::atomic<int> hits{0};
  std::atomic<int> wrong_proc{0};
  const EndpointId ep = m.register_endpoint([&](Worker& w, Message&&) {
    hits++;
    if (m.topology().proc_of_worker(w.id()) != 3) wrong_proc++;
  });
  m.run([&](Worker& w) {
    if (w.id() != 0) return;
    for (int i = 0; i < 10; ++i) {
      Message msg;
      msg.endpoint = ep;
      msg.src_worker = 0;
      w.send_to_proc(3, std::move(msg));
    }
  });
  EXPECT_EQ(hits.load(), 10);
  EXPECT_EQ(wrong_proc.load(), 0);
}

TEST(Machine, HandlerGeneratedMessagesAreDrainedByQd) {
  // A relay chain: each hop forwards until ttl hits zero. Quiescence must
  // not fire while hops remain.
  Machine m(Topology(2, 2, 2), testing_cfg());
  std::atomic<int> hops{0};
  EndpointId ep = -1;
  ep = m.register_endpoint([&](Worker& w, Message&& msg) {
    const int ttl = rt::decode_payload<int>(msg)[0];
    hops++;
    if (ttl > 0) {
      Message next;
      next.endpoint = ep;
      next.dst_worker = (w.id() + 1) % 8;
      next.src_worker = w.id();
      next.payload = rt::encode_payload<int>(ttl - 1);
      w.send(std::move(next));
    }
  });
  m.run([&](Worker& w) {
    if (w.id() != 0) return;
    Message msg;
    msg.endpoint = ep;
    msg.dst_worker = 1;
    msg.src_worker = 0;
    msg.payload = rt::encode_payload<int>(99);
    w.send(std::move(msg));
  });
  EXPECT_EQ(hops.load(), 100);
}

TEST(Machine, ExpeditedHandledBeforeOrdinary) {
  // Preload one worker's inboxes while it is blocked in main, then check
  // the expedited message is dispatched first.
  Machine m(Topology(1, 1, 2), testing_cfg());
  std::vector<int> order;
  util::Spinlock order_mu;
  const EndpointId ep = m.register_endpoint([&](Worker&, Message&& msg) {
    std::lock_guard<util::Spinlock> g(order_mu);
    order.push_back(rt::decode_payload<int>(msg)[0]);
  });
  m.run([&](Worker& w) {
    if (w.id() == 0) {
      // Fill worker 1's inboxes while it waits at the barrier: the
      // expedited message is sent LAST but must be dispatched FIRST.
      for (int i = 0; i < 3; ++i) {
        Message ordinary;
        ordinary.endpoint = ep;
        ordinary.dst_worker = 1;
        ordinary.src_worker = 0;
        ordinary.payload = rt::encode_payload<int>(i);
        w.send(std::move(ordinary));
      }
      Message fast;
      fast.endpoint = ep;
      fast.dst_worker = 1;
      fast.src_worker = 0;
      fast.expedited = true;
      fast.payload = rt::encode_payload<int>(100);
      w.send(std::move(fast));
    }
    w.machine().barrier();  // worker 1 starts dispatching only after this
  });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 100);
}

TEST(Machine, BarrierSynchronizesWorkers) {
  Machine m(Topology(1, 2, 2), testing_cfg());
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  m.run([&](Worker& w) {
    before++;
    w.machine().barrier();
    if (before.load() != 4) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST(Machine, ReusableAcrossRuns) {
  Machine m(Topology(2, 1, 2), testing_cfg());
  std::atomic<int> count{0};
  const EndpointId ep =
      m.register_endpoint([&](Worker&, Message&&) { count++; });
  for (int round = 0; round < 5; ++round) {
    count = 0;
    const auto res = m.run([&](Worker& w) {
      Message msg;
      msg.endpoint = ep;
      msg.dst_worker = (w.id() + 1) % 4;
      msg.src_worker = w.id();
      w.send(std::move(msg));
    });
    EXPECT_EQ(count.load(), 4);
    EXPECT_EQ(res.runtime_messages, 4u);
    EXPECT_GE(res.wall_s, 0.0);
  }
}

TEST(Machine, RunResultCountsFabricTraffic) {
  Machine m(Topology(2, 1, 1), testing_cfg());
  const EndpointId ep = m.register_endpoint([](Worker&, Message&&) {});
  const auto res = m.run([&](Worker& w) {
    if (w.id() != 0) return;
    for (int i = 0; i < 7; ++i) {
      Message msg;
      msg.endpoint = ep;
      msg.dst_worker = 1;  // remote
      msg.src_worker = 0;
      msg.payload.resize(10);
      w.send(std::move(msg));
    }
  });
  EXPECT_EQ(res.fabric_messages, 7u);
  EXPECT_EQ(res.runtime_messages, 7u);
  EXPECT_GT(res.fabric_bytes, 70u);
}

TEST(Machine, NonSmpModeWorks) {
  RuntimeConfig cfg = testing_cfg();
  cfg.dedicated_comm = false;
  Machine m(Topology(2, 2, 1), cfg);
  std::atomic<int> got{0};
  const EndpointId ep = m.register_endpoint(
      [&](Worker&, Message&& msg) { got += rt::decode_payload<int>(msg)[0]; });
  m.run([&](Worker& w) {
    Message msg;
    msg.endpoint = ep;
    msg.dst_worker = (w.id() + 1) % 4;
    msg.src_worker = w.id();
    msg.payload = rt::encode_payload<int>(10);
    w.send(std::move(msg));
  });
  EXPECT_EQ(got.load(), 40);
}

TEST(Machine, NonSmpRequiresOneWorkerPerProc) {
  RuntimeConfig cfg = testing_cfg();
  cfg.dedicated_comm = false;
  EXPECT_THROW(Machine(Topology(1, 1, 2), cfg), std::invalid_argument);
}

TEST(Machine, PendingCounterDefersQuiescence) {
  // A worker holds synthetic pending work, releasing it from an idle hook
  // after a few visits; QD must wait for the release plus the message it
  // triggers.
  Machine m(Topology(1, 1, 2), testing_cfg());
  std::atomic<std::uint64_t> pending{3};
  std::atomic<int> released{0};
  const EndpointId ep =
      m.register_endpoint([&](Worker&, Message&&) { released++; });
  m.worker(0).add_pending_counter(
      [&] { return pending.load(std::memory_order_relaxed); });
  m.worker(0).add_idle_hook([&](Worker& w) {
    if (pending.load() == 0) return;
    if (pending.fetch_sub(1) == 1) {
      Message msg;
      msg.endpoint = ep;
      msg.dst_worker = 1;
      msg.src_worker = 0;
      w.send(std::move(msg));
    }
  });
  m.run([](Worker&) {});
  EXPECT_EQ(pending.load(), 0u);
  EXPECT_EQ(released.load(), 1);
  m.clear_worker_hooks();
}

#if TRAM_TRACE
/// While a worker holds pending work, the thread that called run() parks
/// instead of sampling the QD counters: worker 0 holds a pending counter
/// at 1 until its idle hook sees 20 ms pass, and the caller's ring records
/// a few `qd round` instants per run. A 20 us poll records hundreds.
TEST(Machine, QuiescenceSleepsWhileWorkIsPending) {
  constexpr std::uint64_t kHoldNs = 20'000'000;
  trace::set_enabled(false);
  trace::clear();
  trace::set_enabled(true);
  trace::set_thread_name("run caller");
  for (const bool smp : {true, false}) {
    RuntimeConfig cfg = testing_cfg();
    cfg.dedicated_comm = smp;
    Machine m(Topology(2, 1, 1), cfg);
    std::atomic<std::uint64_t> held{1};
    std::uint64_t main_end_ns = 0;  // worker 0's thread only
    m.worker(0).add_pending_counter([&held] { return held.load(); });
    m.worker(0).add_idle_hook([&](Worker&) {
      if (util::now_ns() - main_end_ns >= kHoldNs) held.store(0);
    });
    m.run([&](Worker& w) {
      if (w.id() == 0) main_end_ns = util::now_ns();
    });
    EXPECT_EQ(held.load(), 0u) << "smp " << smp;
    m.clear_worker_hooks();
  }
  trace::set_enabled(false);
  std::size_t qd_rounds = 0;
  for (const auto& ring : trace::snapshot_rings()) {
    if (ring.name != "run caller") continue;
    for (const trace::Event& e : ring.events) {
      qd_rounds += e.id == trace::kQdRound ? 1 : 0;
    }
  }
  trace::clear();
  EXPECT_GE(qd_rounds, 4u);  // two clean samples end each run
  EXPECT_LE(qd_rounds, 20u);
}
#endif

/// Every worker goes quiet at nearly the same instant, run after run:
/// each main sends one message to every other worker and returns, so the
/// increments of the quiet count race for the one that wakes the
/// quiescence detector. Every run must end, with every message counted.
/// Non-SMP workers never park and pump their own transport between idle
/// rounds, so both modes run.
TEST(Machine, QuiescenceEndsWhenWorkersGoQuietTogether) {
  for (const bool smp : {true, false}) {
    RuntimeConfig cfg = testing_cfg();
    cfg.dedicated_comm = smp;
    Machine m(smp ? Topology(2, 1, 2) : Topology(2, 1, 1), cfg);
    const int workers = m.topology().workers();
    const auto expected = static_cast<std::uint64_t>(workers * (workers - 1));
    std::atomic<std::uint64_t> got{0};
    const EndpointId ep =
        m.register_endpoint([&got](Worker&, Message&&) { got++; });
    for (int run = 0; run < 200; ++run) {
      got.store(0);
      const auto res = m.run([&](Worker& w) {
        for (WorkerId dst = 0; dst < workers; ++dst) {
          if (dst == w.id()) continue;
          Message msg;
          msg.endpoint = ep;
          msg.dst_worker = dst;
          msg.src_worker = w.id();
          w.send(std::move(msg));
        }
      });
      ASSERT_EQ(res.runtime_messages, expected)
          << "smp " << smp << " run " << run;
      ASSERT_EQ(got.load(), expected) << "smp " << smp << " run " << run;
    }
  }
}

TEST(Machine, ClearWorkerHooksRemovesThem) {
  Machine m(Topology(1, 1, 1), testing_cfg());
  m.worker(0).add_pending_counter([] { return std::uint64_t{7}; });
  EXPECT_EQ(m.total_pending(), 7u);
  m.clear_worker_hooks();
  EXPECT_EQ(m.total_pending(), 0u);
}

TEST(Machine, RegisterEndpointOrderIsStable) {
  Machine m(Topology(1, 1, 1), testing_cfg());
  const EndpointId a = m.register_endpoint([](Worker&, Message&&) {});
  const EndpointId b = m.register_endpoint([](Worker&, Message&&) {});
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(m.endpoints().size(), 2u);
}

TEST(Machine, ProgressInterleavesWithCompute) {
  // Worker 0 floods worker 1 while worker 1 pumps progress() from its own
  // main loop — message-driven interleaving, not post-main drain only.
  Machine m(Topology(1, 1, 2), testing_cfg());
  std::atomic<int> seen{0};
  const EndpointId ep =
      m.register_endpoint([&](Worker&, Message&&) { seen++; });
  m.run([&](Worker& w) {
    if (w.id() == 0) {
      for (int i = 0; i < 1000; ++i) {
        Message msg;
        msg.endpoint = ep;
        msg.dst_worker = 1;
        msg.src_worker = 0;
        w.send(std::move(msg));
      }
    } else {
      while (seen.load() < 500) {
        w.progress();
      }
    }
  });
  EXPECT_EQ(seen.load(), 1000);
}

/// The idle ladder, round by round through 65 rounds past the last yield.
/// With spinning: 256 spin rounds running the hooks every 8th, 16 yield
/// rounds, then parks (SMP) or more yields (non-SMP). Oversubscribed SMP
/// (no spin): 16 yields, then parks. Every yield and park round runs the
/// hooks. Non-SMP workers always spin (Machine::idle_spin).
TEST(IdleLadder, StepForEveryRound) {
  using rt::IdleAction;
  struct Stretch {
    std::uint32_t rounds;
    IdleAction action;
    std::uint32_t hooks_every;
  };
  struct Table {
    bool may_park;
    bool spin;
    std::vector<Stretch> stretches;
    std::uint32_t hook_rounds;
  };
  const std::vector<Table> tables = {
      {true, true,
       {{256, IdleAction::kSpin, 8},
        {16, IdleAction::kYield, 1},
        {65, IdleAction::kPark, 1}},
       32 + 16 + 65},
      {false, true,
       {{256, IdleAction::kSpin, 8}, {16 + 65, IdleAction::kYield, 1}},
       32 + 16 + 65},
      {true, false,
       {{16, IdleAction::kYield, 1}, {256 + 65, IdleAction::kPark, 1}},
       337},
  };
  ASSERT_EQ(rt::kIdleSpinRounds + rt::kIdleYieldRounds + 64, 336u);
  EXPECT_EQ(rt::kIdleNapNs, 20'000u);
  for (const Table& t : tables) {
    std::uint32_t round = 0;
    std::uint32_t hook_rounds = 0;
    for (const Stretch& s : t.stretches) {
      for (std::uint32_t i = 0; i < s.rounds; ++i, ++round) {
        const rt::IdleStep step = rt::idle_step(round, t.may_park, t.spin);
        EXPECT_EQ(step.action, s.action) << "round " << round << " may_park "
                                         << t.may_park << " spin " << t.spin;
        EXPECT_EQ(step.run_hooks, i % s.hooks_every == 0)
            << "round " << round << " may_park " << t.may_park << " spin "
            << t.spin;
        hook_rounds += step.run_hooks ? 1 : 0;
      }
    }
    EXPECT_EQ(round, 337u);
    EXPECT_EQ(hook_rounds, t.hook_rounds);
  }
}

/// How long an idle thread may park before its next due time, case by
/// case: a worker holding no hint, a hint beyond its nap, within a nap
/// plus the wake lead, within the lead, and a stale one; then the comm
/// thread, which parks with no cap toward its transport's due time only
/// when it is more than 15 us away, wakes 10 us early, and otherwise
/// spins in chunks of at most 2 us.
TEST(IdleLadder, ParkBudgetForEveryCase) {
  EXPECT_EQ(rt::kWakeLeadNs, 10'000u);
  EXPECT_EQ(rt::kParkMinGapNs, 15'000u);
  EXPECT_EQ(rt::kDueSpinNs, 2'000u);
  constexpr std::uint64_t kNap = rt::kIdleNapNs;
  constexpr std::uint64_t kForever = util::Parker::kForever;
  constexpr std::uint64_t kNow = 1'000'000'000;
  struct Case {
    const char* what;
    std::uint64_t due;
    std::uint64_t cap;
    std::uint64_t park_ns;
  };
  const std::vector<Case> cases = {
      {"worker, no hint", 0, kNap, kNap},
      {"worker, hint beyond nap + lead", kNow + 40'000, kNap, kNap},
      {"worker, hint exactly nap + lead away", kNow + 30'000, kNap, kNap},
      {"worker, hint inside nap + lead", kNow + 25'000, kNap, 15'000},
      {"worker, hint 1 ns past the min gap", kNow + 15'001, kNap, 5'001},
      {"worker, hint at the min gap", kNow + 15'000, kNap, 0},
      {"worker, hint inside the lead", kNow + 4'000, kNap, 0},
      {"worker, hint due now", kNow, kNap, 0},
      {"worker, hint overdue by one nap", kNow - kNap, kNap, 0},
      {"worker, stale hint", kNow - kNap - 1, kNap, kNap},
      {"comm, nothing due", 0, kForever, kForever},
      {"comm, due in 1 s", kNow + 1'000'000'000, kForever,
       1'000'000'000 - 10'000},
      {"comm, due in 15 us + 1 ns", kNow + 15'001, kForever, 5'001},
      {"comm, due in 15 us", kNow + 15'000, kForever, 0},
      {"comm, due in 10 us", kNow + 10'000, kForever, 0},
      {"comm, due in 2 us", kNow + 2'000, kForever, 0},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(rt::park_budget_ns(kNow, c.due, c.cap), c.park_ns) << c.what;
  }
  static_assert(rt::park_budget_ns(kNow, kNow + 25'000, kNap) == 15'000);
}

/// The comm thread's idle step, case by case, under both values of spin
/// unless a row names one. With something due it skips the spin rounds
/// and yields until round 16; then it parks until 10 us before the due
/// time, spins toward it for at most 2 us inside the min gap, or polls
/// again at once when it has passed. With nothing due it walks the
/// workers' ladder and parks with no timeout.
TEST(IdleLadder, CommThreadStepForEveryCase) {
  using rt::IdleAction;
  constexpr std::uint64_t kNow = 10'000'000'000;
  constexpr std::uint64_t kSecond = 1'000'000'000;
  enum class Spin { kBoth, kOn, kOff };
  struct Case {
    const char* what;
    Spin spin;
    std::uint32_t round;
    std::uint64_t due;
    IdleAction action;
    std::uint64_t ns;
  };
  const std::vector<Case> cases = {
      {"due in 1 s, round 0", Spin::kBoth, 0, kNow + kSecond,
       IdleAction::kYield, 0},
      {"due in 1 s, round 15", Spin::kBoth, 15, kNow + kSecond,
       IdleAction::kYield, 0},
      {"nothing due, round 0", Spin::kOn, 0, 0, IdleAction::kSpin, 0},
      {"nothing due, round 0", Spin::kOff, 0, 0, IdleAction::kYield, 0},
      {"nothing due, round 16", Spin::kOn, 16, 0, IdleAction::kSpin, 0},
      {"nothing due, round 16", Spin::kOff, 16, 0, IdleAction::kPark,
       util::Parker::kForever},
      {"due in 1 s, round 16", Spin::kBoth, 16, kNow + kSecond,
       IdleAction::kPark, kSecond - rt::kWakeLeadNs},
      {"due in 15 us + 1 ns, round 16", Spin::kBoth, 16, kNow + 15'001,
       IdleAction::kPark, 5'001},
      {"due in 10 us, round 16", Spin::kBoth, 16, kNow + 10'000,
       IdleAction::kSpin, rt::kDueSpinNs},
      {"due in 1 us, round 16", Spin::kBoth, 16, kNow + 1'000,
       IdleAction::kSpin, 1'000},
      {"due now, round 16", Spin::kBoth, 16, kNow, IdleAction::kSpin, 0},
      {"due passed a second ago, round 16", Spin::kBoth, 16, kNow - kSecond,
       IdleAction::kSpin, 0},
      {"nothing due, round 272", Spin::kBoth, 272, 0, IdleAction::kPark,
       util::Parker::kForever},
  };
  for (const Case& c : cases) {
    for (const bool spin : {true, false}) {
      if (c.spin != Spin::kBoth && (c.spin == Spin::kOn) != spin) continue;
      const rt::CommIdleStep step =
          rt::comm_idle_step(c.round, spin, kNow, c.due);
      EXPECT_EQ(step.action, c.action) << c.what << ", spin " << spin;
      EXPECT_EQ(step.ns, c.ns) << c.what << ", spin " << spin;
    }
  }
  static_assert(rt::comm_idle_step(16, true, kNow, kNow + kSecond).action ==
                IdleAction::kPark);
}

/// An SMP Machine spins its idle threads exactly when every runtime
/// thread (workers plus one comm thread per process) has a CPU of the
/// affinity mask: one topology sized from the mask on each side. Non-SMP
/// workers never park, and spin however many there are.
TEST(IdleLadder, SpinsOnlyWhenRuntimeThreadsFitTheCpus) {
  const int cpus = util::available_cpus();
  ASSERT_GE(cpus, 1);
  RuntimeConfig non_smp = testing_cfg();
  non_smp.dedicated_comm = false;
  EXPECT_TRUE(Machine(Topology(cpus, 1, 1), non_smp).idle_spin());
  EXPECT_TRUE(Machine(Topology(cpus + 1, 1, 1), non_smp).idle_spin());
  if (cpus >= 2) {
    EXPECT_TRUE(Machine(Topology(1, 1, cpus - 1), testing_cfg()).idle_spin());
  }
  EXPECT_FALSE(Machine(Topology(1, 1, cpus), testing_cfg()).idle_spin());
}

/// Oversubscribed SMP ping-pong over the modeled fabric, `balls` balls
/// per pair: worker w < cpus pings worker w + cpus in the other process,
/// and each ball makes kRounds round trips. A worker sends a ball from an
/// idle hook only after 32 idle rounds of holding it (16 yields, then
/// parks), by which time its comm thread has walked its own yields and
/// parked: only unparks and the comm threads' timed parks move traffic.
/// The pinger holds every ball at the start, and ball b leaves after
/// (b + 1) * 32 idle rounds, one hold behind the ball before it. Every
/// ping and pong must arrive exactly once.
void ping_pong_delivers_every_message_once(const RuntimeConfig& cfg,
                                           int balls) {
  const int cpus = util::available_cpus();
  const Topology topo(2, 1, cpus);  // 2 * cpus workers + 2 comm threads
  Machine m(topo, cfg);
  ASSERT_FALSE(m.idle_spin());
  constexpr int kRounds = 64;
  constexpr int kIdleRoundsBeforeSend = 32;
  const int pairs = cpus;  // worker w < pairs pings worker w + pairs
  const auto nballs = static_cast<std::size_t>(balls);
  auto slot = [&](WorkerId w, int ball) {
    return static_cast<std::size_t>(w) * nballs +
           static_cast<std::size_t>(ball);
  };
  auto flight = [&](WorkerId pinger, int ball, int round) {
    return slot(pinger, ball) * kRounds + static_cast<std::size_t>(round);
  };
  // Per flight: pings seen by the partner, pongs seen by the pinging
  // worker.
  std::vector<std::atomic<int>> pings(static_cast<std::size_t>(pairs) *
                                      nballs * kRounds);
  std::vector<std::atomic<int>> pongs(pings.size());
  // Per (worker, ball): the round it holds (-1: none), and its idle hook
  // rounds since it got the ball (the worker's own thread only).
  const auto slots = static_cast<std::size_t>(topo.workers()) * nballs;
  std::vector<std::atomic<int>> holding(slots);
  std::vector<int> idle_rounds(slots, 0);
  for (auto& h : holding) h.store(-1);
  const EndpointId ep = m.register_endpoint([&](Worker& w, Message&& msg) {
    const int tag = rt::decode_payload<int>(msg)[0];
    const int ball = tag / kRounds;
    const int round = tag % kRounds;
    const std::size_t self = slot(w.id(), ball);
    if (w.id() >= pairs) {
      pings[flight(w.id() - pairs, ball, round)]++;
      holding[self].store(round);  // return it as the pong
    } else {
      pongs[flight(w.id(), ball, round)]++;
      if (round + 1 < kRounds) holding[self].store(round + 1);
    }
    idle_rounds[self] = 0;
  });
  for (WorkerId id = 0; id < topo.workers(); ++id) {
    m.worker(id).add_idle_hook([&, id](Worker& w) {
      for (int ball = 0; ball < balls; ++ball) {
        const std::size_t self = slot(id, ball);
        const int round = holding[self].load();
        if (round < 0 || ++idle_rounds[self] < kIdleRoundsBeforeSend) {
          continue;
        }
        Message msg;
        msg.endpoint = ep;
        msg.dst_worker = w.id() < pairs ? w.id() + pairs : w.id() - pairs;
        msg.src_worker = w.id();
        msg.payload = rt::encode_payload<int>(ball * kRounds + round);
        w.send(std::move(msg));
        holding[self].store(-1);  // the reply lands on this thread, later
      }
    });
    m.worker(id).add_pending_counter([&, id] {
      std::uint64_t held = 0;
      for (int ball = 0; ball < balls; ++ball) {
        held += holding[slot(id, ball)].load() < 0 ? 0u : 1u;
      }
      return held;
    });
  }
  const auto res = m.run([&](Worker& w) {
    if (w.id() >= pairs) return;
    for (int ball = 0; ball < balls; ++ball) {
      idle_rounds[slot(w.id(), ball)] = -kIdleRoundsBeforeSend * ball;
      holding[slot(w.id(), ball)].store(0);
    }
  });
  for (std::size_t i = 0; i < pings.size(); ++i) {
    ASSERT_EQ(pings[i].load(), 1) << "ping flight " << i;
    ASSERT_EQ(pongs[i].load(), 1) << "pong flight " << i;
  }
  EXPECT_EQ(res.runtime_messages, 2u * pings.size());
  EXPECT_EQ(res.fabric_messages, 2u * pings.size());
  m.clear_worker_hooks();
}

/// With a zero-cost fabric nothing is ever due, so each comm thread parks
/// with no timeout: a lost wake-up (an egress push or a fabric arrival
/// that leaves its comm thread asleep) hangs the run.
TEST(IdleLadder, OversubscribedPingPongDeliversEveryMessageOnce) {
  ping_pong_delivers_every_message_once(testing_cfg(), 1);
}

/// With a 100 us remote alpha and two balls per pair, other balls are
/// often in flight toward a worker's process while it holds one, so its
/// comm thread holds a due arrival and has parked toward it when the push
/// comes: the push must end a timed park. On a 4-vCPU VM about 40% of the
/// pushes found their comm thread parked toward a due time, 30% parked
/// with nothing due and 30% awake (an instrumented build, 3 runs).
TEST(IdleLadder, OversubscribedPingPongWithDueArrivalsDeliversEveryMessageOnce) {
  RuntimeConfig cfg = testing_cfg();
  cfg.cost.alpha_remote_ns = 100'000.0;
  ping_pong_delivers_every_message_once(cfg, 2);
}

/// Worker threads sleep with a 1 ns timer slack, so a nap lasts about as
/// long as asked; the thread that called run() keeps its own slack.
TEST(IdleLadder, WorkerThreadsSleepWithOneNanosecondSlack) {
#if !defined(__linux__)
  GTEST_SKIP() << "timer slack is a Linux prctl";
#else
  const int caller_slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  for (const bool smp : {true, false}) {
    RuntimeConfig cfg = testing_cfg();
    cfg.dedicated_comm = smp;
    Machine m(Topology(2, 1, 1), cfg);
    std::array<std::atomic<int>, 2> seen{-1, -1};
    for (WorkerId w = 0; w < 2; ++w) {
      auto& slot = seen[static_cast<std::size_t>(w)];
      m.worker(w).add_idle_hook([&slot](Worker&) {
        slot.store(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0));
      });
      // Quiescence waits until the hook has run at least once.
      m.worker(w).add_pending_counter(
          [&slot] { return slot.load() < 0 ? 1u : 0u; });
    }
    m.run([](Worker&) {});
    EXPECT_EQ(seen[0].load(), 1) << "smp " << smp;
    EXPECT_EQ(seen[1].load(), 1) << "smp " << smp;
    m.clear_worker_hooks();
  }
  EXPECT_EQ(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0), caller_slack);
#endif
}

}  // namespace
