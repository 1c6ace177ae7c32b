/// High-water re-arm audit (one parameterized case per counter): every
/// max_/peak_ statistic must reset along the same path production uses
/// between benchmark trials, so a trial's peak measures that trial alone
/// and not whatever the warmup did. The three high-waters and their re-arm
/// points:
///   max_inflight_msgs      — ReliableTransport::reset() (Machine::run)
///   peak_outstanding_bytes — PayloadPool::reset_stats()
///   max_link_queue_ns      — Fabric::reset() (FabricTransport::reset,
///                            also invoked at Machine::run start)
/// Each case drives a heavy scenario, re-arms, drives a light one, and
/// asserts the counter reports the light scenario — a stale high-water
/// would still show the heavy peak.

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "core/tram_stats.hpp"
#include "net/fabric.hpp"
#include "runtime/machine.hpp"
#include "util/payload_pool.hpp"

namespace {

using namespace tram;

void check_inflight_rearm() {
  // Delay-only faults (no drops: deterministic delivery) stretch every
  // RTT, so unacked data piles up during the heavy run.
  auto cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  cfg.fault.delay_ns = 200'000;
  cfg.fault.delay_rate = 1.0;
  rt::Machine machine(util::Topology(8, 1, 1), cfg);
  std::atomic<std::uint64_t> hits{0};
  const EndpointId ep = machine.register_endpoint(
      [&](rt::Worker&, rt::Message&&) {
        hits.fetch_add(1, std::memory_order_relaxed);
      });
  const int W = machine.topology().workers();

  machine.run([&](rt::Worker& w) {
    for (int i = 0; i < 64; ++i) {
      for (WorkerId dst = 0; dst < W; ++dst) {
        if (dst == w.id()) continue;
        rt::Message msg;
        msg.endpoint = ep;
        msg.dst_worker = dst;
        msg.src_worker = w.id();
        msg.payload = rt::encode_payload<int>(i);
        w.send(std::move(msg));
      }
    }
  });
  const std::uint64_t heavy = machine.fault_stats().max_inflight_msgs;
  EXPECT_GE(heavy, 4u) << "heavy run never piled up in-flight data; "
                          "scenario broken";

  // Machine::run begins with transport_->reset(), which re-arms the
  // in-flight high-water; a one-message run must report ~1, not the
  // heavy run's pile-up.
  machine.run([&](rt::Worker& w) {
    if (w.id() != 0) return;
    rt::Message msg;
    msg.endpoint = ep;
    msg.dst_worker = W - 1;
    msg.src_worker = 0;
    msg.payload = rt::encode_payload<int>(1);
    w.send(std::move(msg));
  });
  const std::uint64_t light = machine.fault_stats().max_inflight_msgs;
  EXPECT_GE(light, 1u);
  EXPECT_LT(light, heavy);
}

void check_pool_peak_rearm() {
  util::PayloadPool pool;
  {
    const auto big = pool.acquire(1 << 20);
    EXPECT_GE(pool.stats().peak_outstanding_bytes, std::uint64_t{1} << 20);
  }  // released: outstanding back to 0, peak still remembers the MiB

  const std::uint64_t heavy = pool.stats().peak_outstanding_bytes;
  EXPECT_GE(heavy, std::uint64_t{1} << 20);

  // reset_stats() re-arms the peak to the *current* outstanding bytes
  // (zero here), so the next trial's peak is its own.
  pool.reset_stats();
  EXPECT_EQ(pool.stats().peak_outstanding_bytes, 0u);

  const auto small = pool.acquire(64);
  const std::uint64_t light = pool.stats().peak_outstanding_bytes;
  EXPECT_GT(light, 0u);
  EXPECT_LT(light, heavy);
}

void check_link_queue_rearm() {
  // Two sources converging on one destination share its ingress link:
  // the second arrival queues, arming the queue-delay high-water. The
  // link stays busy for a second per message, so the second send queues
  // however long the thread is descheduled (or slowed by a sanitizer)
  // between the two.
  net::CostModel m = net::CostModel::zero();
  m.link_per_msg_ns = 1'000'000'000;
  net::Fabric fab(util::Topology(3, 1, 1), m);
  auto packet = [](ProcId src, ProcId dst) {
    net::Packet p;
    p.src_proc = src;
    p.dst_proc = dst;
    p.dst_worker = 0;
    p.payload.resize(16);
    return p;
  };
  fab.send(packet(0, 2));
  fab.send(packet(1, 2));
  const std::uint64_t heavy = fab.max_link_queue_ns();
  EXPECT_GT(heavy, 0u);

  // Fabric::reset() is what FabricTransport::reset() calls at the top of
  // every Machine::run. An uncontended send afterwards must leave the
  // high-water at zero, not at the heavy run's queueing.
  fab.reset();
  EXPECT_EQ(fab.max_link_queue_ns(), 0u);
  fab.send(packet(0, 1));
  EXPECT_EQ(fab.max_link_queue_ns(), 0u);
}

class HighWaterRearm : public ::testing::TestWithParam<std::string> {};

TEST_P(HighWaterRearm, ReArmsAlongTheProductionResetPath) {
  const std::string& counter = GetParam();
  if (counter == "max_inflight_msgs") {
    check_inflight_rearm();
  } else if (counter == "peak_outstanding_bytes") {
    check_pool_peak_rearm();
  } else if (counter == "max_link_queue_ns") {
    check_link_queue_rearm();
  } else {
    FAIL() << "unknown counter " << counter;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCounters, HighWaterRearm,
    ::testing::Values("max_inflight_msgs", "peak_outstanding_bytes",
                      "max_link_queue_ns"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
