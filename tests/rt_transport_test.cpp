/// The Transport seam: ModeledFabricTransport over CostModel::zero()
/// (RuntimeConfig::testing()) delivers every direct and process-addressed
/// message in SMP and non-SMP mode, carries the whole aggregation stack
/// unchanged, and charges each message its payload plus the fixed header.
/// Its poll() tells each worker when the next packet it holds for that
/// worker lands.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/tram.hpp"
#include "net/packet.hpp"
#include "runtime/machine.hpp"
#include "runtime/process.hpp"
#include "runtime/transport.hpp"
#include "util/spinlock.hpp"

namespace {

using namespace tram;
using rt::Machine;
using rt::Message;
using rt::RuntimeConfig;
using rt::Worker;
using util::Topology;

/// Per-worker and per-process delivery tallies of a fixed SPMD workload:
/// every worker sends kPerPair direct messages to every worker and
/// kPerPair process-addressed messages to every process.
struct WorkloadResult {
  std::vector<int> direct_per_worker;
  std::vector<int> addressed_per_proc;
  std::uint64_t runtime_messages = 0;
  std::uint64_t fabric_messages = 0;
};

WorkloadResult run_workload(const RuntimeConfig& cfg) {
  constexpr int kPerPair = 20;
  Machine m(Topology(2, 2, 2), cfg);  // 8 workers across 4 procs
  const int workers = m.topology().workers();
  const int procs = m.topology().procs();
  std::vector<util::Padded<std::atomic<int>>> direct(
      static_cast<std::size_t>(workers));
  std::vector<util::Padded<std::atomic<int>>> addressed(
      static_cast<std::size_t>(procs));
  const EndpointId ep_direct = m.register_endpoint(
      [&](Worker& w, Message&& msg) {
        direct[static_cast<std::size_t>(w.id())].value +=
            rt::decode_payload<int>(msg)[0];
      });
  const EndpointId ep_addr = m.register_endpoint(
      [&](Worker& w, Message&&) {
        addressed[static_cast<std::size_t>(
                      m.topology().proc_of_worker(w.id()))]
            .value++;
      });
  const auto res = m.run([&](Worker& w) {
    for (WorkerId dst = 0; dst < workers; ++dst) {
      for (int i = 0; i < kPerPair; ++i) {
        Message msg;
        msg.endpoint = ep_direct;
        msg.dst_worker = dst;
        msg.src_worker = w.id();
        msg.payload = rt::encode_payload<int>(1);
        w.send(std::move(msg));
      }
    }
    for (ProcId p = 0; p < procs; ++p) {
      for (int i = 0; i < kPerPair; ++i) {
        Message msg;
        msg.endpoint = ep_addr;
        msg.src_worker = w.id();
        w.send_to_proc(p, std::move(msg));
      }
    }
  });
  WorkloadResult out;
  out.direct_per_worker.reserve(static_cast<std::size_t>(workers));
  for (const auto& c : direct) out.direct_per_worker.push_back(c.value.load());
  for (const auto& c : addressed) {
    out.addressed_per_proc.push_back(c.value.load());
  }
  out.runtime_messages = res.runtime_messages;
  out.fabric_messages = res.fabric_messages;
  return out;
}

TEST(Transport, DeliversEveryDirectMessage) {
  const WorkloadResult r = run_workload(RuntimeConfig::testing());
  for (const int got : r.direct_per_worker) EXPECT_EQ(got, 8 * 20);
  for (const int got : r.addressed_per_proc) EXPECT_EQ(got, 8 * 20);
  // One runtime message per send; the fabric carries exactly the
  // cross-process subset (6 of 8 destination workers, 3 of 4 processes).
  EXPECT_EQ(r.runtime_messages, 8u * (8 + 4) * 20);
  EXPECT_EQ(r.fabric_messages, 8u * (6 + 3) * 20);
}

TEST(Transport, WorksInNonSmpMode) {
  RuntimeConfig cfg = RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  Machine m(Topology(2, 2, 1), cfg);
  std::atomic<int> got{0};
  const EndpointId ep =
      m.register_endpoint([&](Worker&, Message&&) { got++; });
  m.run([&](Worker& w) {
    Message msg;
    msg.endpoint = ep;
    msg.dst_worker = (w.id() + 1) % 4;
    msg.src_worker = w.id();
    w.send(std::move(msg));
  });
  EXPECT_EQ(got.load(), 4);
}

TEST(Transport, AllSchemesDeliverEveryItem) {
  // The pooled aggregation stack end to end, per scheme, over the
  // zero-cost fabric: every inserted item must reach its destination
  // worker.
  auto schemes = core::all_schemes();
  for (const auto s : core::routed_schemes()) schemes.push_back(s);
  for (const auto scheme : schemes) {
    Machine m(Topology(2, 2, 2), RuntimeConfig::testing());
    const int workers = m.topology().workers();
    std::vector<util::Padded<std::atomic<std::uint64_t>>> received(
        static_cast<std::size_t>(workers));
    core::TramConfig tcfg;
    tcfg.scheme = scheme;
    tcfg.buffer_items = 64;
    core::TramDomain<std::uint32_t> tram_dom(
        m, tcfg, [&](Worker& w, const std::uint32_t& v) {
          received[static_cast<std::size_t>(w.id())].value += v;
        });
    constexpr int kItems = 4000;
    m.run([&](Worker& w) {
      auto& h = tram_dom.on(w);
      for (int i = 0; i < kItems; ++i) {
        h.insert(static_cast<WorkerId>(i % workers), 1u);
      }
      h.flush_all();
    });
    std::uint64_t total = 0;
    for (const auto& c : received) total += c.value.load();
    EXPECT_EQ(total, static_cast<std::uint64_t>(workers) * kItems)
        << "scheme " << core::to_string(scheme);
    const auto stats = tram_dom.aggregate_stats();
    EXPECT_EQ(stats.items_delivered, stats.items_inserted)
        << "scheme " << core::to_string(scheme);
    m.clear_worker_hooks();
  }
}

TEST(Transport, CountsPayloadPlusHeaderBytes) {
  // Every cross-process message is charged its payload plus the fixed
  // packet header.
  Machine m(Topology(2, 1, 1), RuntimeConfig::testing());
  const EndpointId ep = m.register_endpoint([](Worker&, Message&&) {});
  const auto res = m.run([&](Worker& w) {
    if (w.id() != 0) return;
    for (int i = 0; i < 5; ++i) {
      Message msg;
      msg.endpoint = ep;
      msg.dst_worker = 1;
      msg.src_worker = 0;
      msg.payload.resize(100);
      w.send(std::move(msg));
    }
  });
  EXPECT_EQ(res.fabric_bytes, 5u * (100u + net::Packet::kHeaderBytes));
}

/// poll() names the worker of the packet heading the reorder heap and
/// stores its arrival in that worker's hint, clears the hint when the top
/// moves to a sibling or the heap drains, and fixes a process-addressed
/// packet's worker as it is drained. The test thread drives the transport
/// of a machine that never runs: a 1 s remote alpha holds packets, and
/// only the 0.9 s lead of the 0.1 s same-node alpha over it orders the
/// two arrivals, so no assertion reads the clock.
TEST(Transport, PollTellsEachWorkerItsNextArrival) {
  RuntimeConfig cfg = RuntimeConfig::testing();
  cfg.cost.alpha_remote_ns = 1e9;
  cfg.cost.alpha_local_ns = 1e8;
  Machine m(Topology(2, 2, 2), cfg);  // procs 0, 1 on node 0; 2, 3 on 1
  std::vector<WorkerId> handled_by;
  const EndpointId ep = m.register_endpoint(
      [&](Worker& w, Message&&) { handled_by.push_back(w.id()); });
  rt::Transport& tr = m.transport();
  rt::Process& dst = m.process(1);
  Worker& w2 = dst.worker(0);
  Worker& w3 = dst.worker(1);

  // Process-addressed, from the other node: held 1 s, and its worker is
  // picked as poll drains it into the heap.
  Message addressed;
  addressed.endpoint = ep;
  addressed.src_worker = 4;
  addressed.dst_proc_hint = 1;
  tr.send(2, std::move(addressed));
  EXPECT_EQ(tr.poll(dst), 0u);
  const std::uint64_t remote_due = tr.next_due_ns(1);
  ASSERT_NE(remote_due, 0u);
  EXPECT_EQ(w2.next_arrival_ns(), remote_due);
  EXPECT_EQ(w3.next_arrival_ns(), 0u);

  // Direct to the sibling, from the same node: lands first, so the hint
  // moves to w3 and w2's is cleared.
  Message direct;
  direct.endpoint = ep;
  direct.src_worker = 0;
  direct.dst_worker = w3.id();
  tr.send(0, std::move(direct));
  EXPECT_EQ(tr.poll(dst), 0u);
  const std::uint64_t local_due = tr.next_due_ns(1);
  ASSERT_LT(local_due, remote_due);
  EXPECT_EQ(w3.next_arrival_ns(), local_due);
  EXPECT_EQ(w2.next_arrival_ns(), 0u);

  // Poll until the sibling's packet is delivered: the top is w2's again.
  auto poll_until_due = [&](std::uint64_t due) {
    while (tr.next_due_ns(1) != due) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      tr.poll(dst);
    }
  };
  poll_until_due(remote_due);
  EXPECT_EQ(w2.next_arrival_ns(), remote_due);
  EXPECT_EQ(w3.next_arrival_ns(), 0u);

  // Drained: every hint reads 0.
  poll_until_due(0);
  for (ProcId p = 0; p < m.topology().procs(); ++p) {
    for (LocalWorkerId r = 0; r < m.topology().workers_per_proc(); ++r) {
      EXPECT_EQ(m.process(p).worker(r).next_arrival_ns(), 0u)
          << "proc " << p << " rank " << r;
    }
  }

  // The process-addressed packet went to the worker its hint named.
  EXPECT_EQ(w2.progress(), 1u);
  EXPECT_EQ(w3.progress(), 1u);
  EXPECT_EQ(handled_by, (std::vector<WorkerId>{w2.id(), w3.id()}));
}

}  // namespace
