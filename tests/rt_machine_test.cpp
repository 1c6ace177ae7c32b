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
#include "util/spinlock.hpp"

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

/// The idle ladder, round by round through 64 rounds past the last yield:
/// 256 spin rounds running the hooks every 8th, 16 yield rounds, then
/// naps (SMP) or more yields (non-SMP), every one running the hooks.
TEST(IdleLadder, StepForEveryRound) {
  using rt::IdleAction;
  struct Stretch {
    std::uint32_t rounds;
    IdleAction action;
    std::uint32_t hooks_every;
  };
  const std::vector<Stretch> smp = {{256, IdleAction::kSpin, 8},
                                    {16, IdleAction::kYield, 1},
                                    {65, IdleAction::kNap, 1}};
  const std::vector<Stretch> non_smp = {{256, IdleAction::kSpin, 8},
                                        {16 + 65, IdleAction::kYield, 1}};
  ASSERT_EQ(rt::kIdleSpinRounds + rt::kIdleYieldRounds + 64, 336u);
  EXPECT_EQ(rt::kIdleNapNs, 20'000u);
  for (const bool may_nap : {true, false}) {
    std::uint32_t round = 0;
    std::uint32_t hook_rounds = 0;
    for (const Stretch& s : may_nap ? smp : non_smp) {
      for (std::uint32_t i = 0; i < s.rounds; ++i, ++round) {
        const rt::IdleStep step = rt::idle_step(round, may_nap);
        EXPECT_EQ(step.action, s.action)
            << "round " << round << " may_nap " << may_nap;
        EXPECT_EQ(step.run_hooks, i % s.hooks_every == 0)
            << "round " << round << " may_nap " << may_nap;
        hook_rounds += step.run_hooks ? 1 : 0;
      }
    }
    EXPECT_EQ(round, 337u);
    EXPECT_EQ(hook_rounds, 32u + 16u + 65u);
  }
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
