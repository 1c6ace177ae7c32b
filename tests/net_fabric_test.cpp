#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.hpp"
#include "util/timebase.hpp"
#include "util/topology.hpp"

namespace {

using tram::net::CostModel;
using tram::net::Fabric;
using tram::net::Packet;
using tram::util::Topology;

Packet make_packet(tram::ProcId src, tram::ProcId dst,
                   std::size_t bytes = 16) {
  Packet p;
  p.src_proc = src;
  p.dst_proc = dst;
  p.dst_worker = 0;
  p.payload.resize(bytes);
  return p;
}

TEST(Fabric, ZeroDelayDeliversImmediately) {
  Fabric fab(Topology(2, 2, 1), CostModel::zero());
  const std::uint64_t before = tram::util::now_ns();
  const std::uint64_t arrival = fab.send(make_packet(0, 3));
  EXPECT_GE(arrival, before);
  auto got = fab.ingress(3).try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src_proc, 0);
  EXPECT_LE(got->arrival_ns, tram::util::now_ns());
}

TEST(Fabric, CountsMessagesAndBytes) {
  Fabric fab(Topology(2, 1, 1), CostModel::zero());
  fab.send(make_packet(0, 1, 100));
  fab.send(make_packet(0, 1, 200));
  fab.send(make_packet(1, 0, 50));
  EXPECT_EQ(fab.total_messages_sent(), 3u);
  // wire_bytes adds the fixed header charge.
  EXPECT_EQ(fab.total_bytes_sent(),
            100 + 200 + 50 + 3 * Packet::kHeaderBytes);
  EXPECT_EQ(fab.counters(0).messages_sent.load(), 2u);
  EXPECT_EQ(fab.counters(1).messages_sent.load(), 1u);
}

TEST(Fabric, InFlightTracksPushedMinusReceived) {
  Fabric fab(Topology(2, 1, 1), CostModel::zero());
  EXPECT_EQ(fab.in_flight(), 0u);
  fab.send(make_packet(0, 1));
  fab.send(make_packet(0, 1));
  EXPECT_EQ(fab.in_flight(), 2u);
  auto p = fab.ingress(1).try_pop();
  ASSERT_TRUE(p.has_value());
  // Popping alone is not receipt: the receiver must acknowledge, so
  // reorder-heap residents still count as in flight.
  EXPECT_EQ(fab.in_flight(), 2u);
  fab.note_received();
  EXPECT_EQ(fab.in_flight(), 1u);
  p = fab.ingress(1).try_pop();
  fab.note_received();
  EXPECT_EQ(fab.in_flight(), 0u);
}

TEST(Fabric, RemoteArrivalRespectsAlpha) {
  CostModel m = CostModel::zero();
  m.alpha_remote_ns = 50'000;
  Fabric fab(Topology(2, 1, 1), m);
  const std::uint64_t before = tram::util::now_ns();
  const std::uint64_t arrival = fab.send(make_packet(0, 1));
  EXPECT_GE(arrival, before + 50'000);
}

TEST(Fabric, SameNodeSkipsNicAndUsesLocalAlpha) {
  CostModel m = CostModel::zero();
  m.alpha_remote_ns = 1'000'000;
  m.alpha_local_ns = 1'000;
  Fabric fab(Topology(1, 2, 1), m);  // both procs on one node
  const std::uint64_t before = tram::util::now_ns();
  const std::uint64_t arrival = fab.send(make_packet(0, 1));
  EXPECT_GE(arrival, before + 1'000);
  EXPECT_LT(arrival, before + 500'000);  // got local, not remote, alpha
}

TEST(Fabric, InjectionSerializesPerSourceNode) {
  CostModel m = CostModel::zero();
  m.inject_ns = 10'000;
  m.alpha_remote_ns = 0;
  Fabric fab(Topology(2, 1, 1), m);
  // Back-to-back sends from one node must each wait for the previous
  // injection: arrivals at least inject_ns apart.
  std::vector<std::uint64_t> arrivals;
  for (int i = 0; i < 5; ++i) {
    arrivals.push_back(fab.send(make_packet(0, 1, 0)));
  }
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i], arrivals[i - 1] + 10'000);
  }
}

TEST(Fabric, LinkContentionSerializesPerDestinationNode) {
  // A 1 s occupancy: the second send queues however late the host runs
  // it.
  constexpr std::uint64_t kOccupancyNs = 1'000'000'000;
  CostModel m = CostModel::zero();
  m.link_per_msg_ns = kOccupancyNs;
  Fabric fab(Topology(3, 1, 1), m);
  // Two sources converging on one destination node share its ingress
  // link: the second arrival queues behind the first's occupancy.
  std::vector<std::uint64_t> arrivals;
  arrivals.push_back(fab.send(make_packet(0, 2, 0)));
  arrivals.push_back(fab.send(make_packet(1, 2, 0)));
  EXPECT_GE(arrivals[1], arrivals[0] + kOccupancyNs);
  EXPECT_EQ(fab.link_busy_ns(), 2 * kOccupancyNs);
  EXPECT_GT(fab.max_link_queue_ns(), 0u);
  // Distinct destination nodes have distinct links: the send pays its own
  // occupancy, not a queue.
  const std::uint64_t before = tram::util::now_ns();
  const std::uint64_t other = fab.send(make_packet(0, 1, 0));
  EXPECT_LT(other, before + 2 * kOccupancyNs);
}

TEST(Fabric, LinkContentionOffLeavesCountersZero) {
  CostModel m = CostModel::zero();
  m.inject_ns = 1'000;
  Fabric fab(Topology(2, 1, 1), m);
  EXPECT_FALSE(m.link_contention());
  fab.send(make_packet(0, 1));
  fab.send(make_packet(1, 0));
  EXPECT_EQ(fab.link_busy_ns(), 0u);
  EXPECT_EQ(fab.max_link_queue_ns(), 0u);
}

TEST(Fabric, LinkContentionChargesPerByte) {
  CostModel m = CostModel::zero();
  m.link_per_byte_ns = 2.0;
  Fabric fab(Topology(2, 1, 1), m);
  fab.send(make_packet(0, 1, 100));
  const std::size_t wire = 100 + Packet::kHeaderBytes;
  EXPECT_EQ(fab.link_busy_ns(), 2u * wire);
}

TEST(Fabric, ResetClearsLinkClocks) {
  CostModel m = CostModel::zero();
  m.link_per_msg_ns = 1'000'000;
  Fabric fab(Topology(2, 1, 1), m);
  fab.send(make_packet(0, 1));
  fab.send(make_packet(1, 0));
  fab.reset();
  EXPECT_EQ(fab.link_busy_ns(), 0u);
  EXPECT_EQ(fab.max_link_queue_ns(), 0u);
  // A fresh send after reset pays only its own occupancy, not the old
  // clock's backlog.
  const std::uint64_t before = tram::util::now_ns();
  const std::uint64_t arrival = fab.send(make_packet(0, 1));
  EXPECT_LT(arrival, before + 3'000'000);
}

TEST(Fabric, RejectsBadDestination) {
  Fabric fab(Topology(1, 2, 1), CostModel::zero());
  EXPECT_THROW(fab.send(make_packet(0, 7)), std::out_of_range);
  EXPECT_THROW(fab.send(make_packet(0, -1)), std::out_of_range);
}

TEST(Fabric, ResetClearsCountersAndClocks) {
  CostModel m = CostModel::zero();
  m.inject_ns = 1'000'000;
  Fabric fab(Topology(2, 1, 1), m);
  fab.send(make_packet(0, 1));
  fab.reset();
  EXPECT_EQ(fab.total_messages_sent(), 0u);
  EXPECT_EQ(fab.total_bytes_sent(), 0u);
}

TEST(Fabric, ExpeditedOrderedFirstAmongEqualArrivals) {
  tram::net::PacketLater later;
  Packet a, b;
  a.arrival_ns = 100;
  a.expedited = false;
  b.arrival_ns = 100;
  b.expedited = true;
  // In a max-heap with this comparator, b (expedited) comes out first.
  EXPECT_TRUE(later(a, b));
  EXPECT_FALSE(later(b, a));
  a.arrival_ns = 50;
  EXPECT_TRUE(later(b, a));  // earlier arrival still wins
}

}  // namespace
