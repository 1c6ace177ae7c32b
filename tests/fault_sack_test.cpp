/// SACK / adaptive-RTO / pacing coverage for the congestion-aware
/// reliability layer (src/fault/):
///  - the SACK bitmap helpers across the RFC-1982 uint32 sequence wrap,
///    including out-of-order sequences beyond the 64-bit window;
///  - end-to-end recovery under heavy loss, bit-for-bit against a
///    fault-free reference — which also proves a retransmit arriving
///    after SACK already covered it, and a stale (duplicated) ack naming
///    sequences outside the live window, are both absorbed;
///  - fast retransmit and the RTT estimator actually engaging;
///  - window pacing never deadlocking quiescence detection: a
///    one-message window forces nearly every send through the pacing
///    queue, and the run still completes exactly-once (paced messages
///    count in in_flight(), so QD cannot fire under them);
///  - the AIMD window step by step, with no machine run and no clock
///    assertion: a ReliableTransport over a recording stub, fed crafted
///    ack headers through on_inbound.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "apps/histogram.hpp"
#include "core/scheme.hpp"
#include "core/tram_stats.hpp"
#include "fault/fault_config.hpp"
#include "fault/reliable_transport.hpp"
#include "fault/reliable_wire.hpp"
#include "runtime/machine.hpp"
#include "runtime/transport.hpp"
#include "util/payload_pool.hpp"

namespace {

using namespace tram;

// ---- bitmap helpers across the sequence wrap ----

TEST(SackWire, BitmapRoundTripsAcrossSeqWrap) {
  // Receiver: next expected is 2 before the wrap; out-of-order arrivals
  // straddle it on both sides.
  const std::uint32_t cum = 0xfffffffe;
  const std::set<std::uint32_t> ooo = {0xffffffff, 0x00000001, 0x00000002};
  const std::uint64_t bits = fault::build_sack_bitmap(cum, ooo);
  // Offsets from cum+1 = 0xffffffff: 0, 2, 3.
  EXPECT_EQ(bits, (1ull << 0) | (1ull << 2) | (1ull << 3));

  // The sender decodes exactly the same sequences, in serial order.
  std::vector<std::uint32_t> decoded;
  fault::for_each_sacked(cum, bits,
                         [&](std::uint32_t s) { decoded.push_back(s); });
  EXPECT_EQ(decoded, (std::vector<std::uint32_t>{0xffffffff, 0x00000001,
                                                 0x00000002}));
}

TEST(SackWire, SequencesBeyondTheWindowAreNotReported) {
  const std::uint32_t cum = 100;
  // 101..164 are representable (offsets 0..63); 165 and far-future
  // sequences are not — and sequences at/before cum never set a bit
  // (their wrapped offset lands far outside the 64-bit window).
  const std::set<std::uint32_t> ooo = {101, 164, 165, 5000, 100, 50};
  const std::uint64_t bits = fault::build_sack_bitmap(cum, ooo);
  EXPECT_EQ(bits, (1ull << 0) | (1ull << 63));
}

TEST(SackWire, HeaderCarriesSackBitmap) {
  fault::ReliableHeader h;
  h.seq = 7;
  h.ack = 3;
  h.sack = 0xdeadbeefcafef00dull;
  std::array<std::byte, sizeof h> buf{};
  std::memcpy(buf.data(), &h, sizeof h);
  const auto parsed = fault::parse_reliable_header(
      std::span<const std::byte>(buf.data(), buf.size()));
  EXPECT_EQ(parsed.sack, 0xdeadbeefcafef00dull);
  EXPECT_EQ(fault::ReliableHeader::kSackBits, 64u);
}

// ---- end-to-end: heavy loss, SACK on and off ----

apps::HistogramParams histogram_params() {
  apps::HistogramParams p;
  p.updates_per_worker = 1500;
  p.bins_per_worker = 256;
  p.progress_interval = 64;
  p.tram.scheme = core::Scheme::WsP;
  p.tram.buffer_items = 64;
  return p;
}

std::vector<std::vector<std::uint64_t>> reference_tables(
    const util::Topology& topo) {
  rt::RuntimeConfig cfg = rt::RuntimeConfig::inline_testing();
  cfg.dedicated_comm = false;
  rt::Machine machine(topo, cfg);
  apps::HistogramApp app(machine, histogram_params());
  const auto res = app.run();
  EXPECT_TRUE(res.verified);
  std::vector<std::vector<std::uint64_t>> ref;
  for (WorkerId w = 0; w < topo.workers(); ++w) {
    ref.push_back(app.table_slice(w));
  }
  return ref;
}

/// Run the histogram under the given fault config and check exactly-once
/// plus bit-for-bit tables; returns the machine's fault stats.
core::FaultStats run_lossy(const util::Topology& topo,
                           const fault::FaultConfig& f,
                           const std::vector<std::vector<std::uint64_t>>& ref,
                           const std::string& what,
                           std::uint64_t* srtt_out = nullptr) {
  rt::RuntimeConfig cfg = rt::RuntimeConfig::inline_testing();
  cfg.dedicated_comm = false;
  cfg.fault = f;
  rt::Machine machine(topo, cfg);
  apps::HistogramApp app(machine, histogram_params());
  const auto res = app.run();
  EXPECT_TRUE(res.verified) << what;
  EXPECT_EQ(res.tram.items_inserted, res.tram.items_delivered) << what;
  for (WorkerId w = 0; w < topo.workers(); ++w) {
    EXPECT_EQ(app.table_slice(w), ref[static_cast<std::size_t>(w)])
        << what << " worker " << w;
  }
  // QD fired, so nothing may still be unacked, paced, or in the fabric.
  EXPECT_EQ(machine.reliability()->in_flight(), 0u) << what;
  if (srtt_out != nullptr) {
    std::uint64_t srtt = 0;
    for (ProcId s = 0; s < topo.procs(); ++s) {
      for (ProcId d = 0; d < topo.procs(); ++d) {
        if (s == d) continue;
        srtt = std::max(srtt, machine.reliability()->debug_srtt_ns(s, d));
      }
    }
    *srtt_out = srtt;
  }
  return machine.fault_stats();
}

/// Heavy loss with SACK: multi-loss windows recover via fast retransmit
/// (holes named by the bitmap go out before the timer), the RTT
/// estimator converges, and the result is still bit-for-bit. The same
/// run necessarily delivers retransmits for sequences SACK already
/// covered (a timer batch races the ack that settles it) — the dedup
/// window absorbs them, observable as dup_drops with dup_rate == 0.
TEST(FaultSack, HeavyLossRecoversViaFastRetransmit) {
  const util::Topology topo(8, 1, 1);
  const auto ref = reference_tables(topo);

  fault::FaultConfig f;
  f.drop_rate = 0.25;
  f.seed = 31;
  ASSERT_EQ(f.rto_ns, 0u);  // adaptive timer
  std::uint64_t srtt = 0;
  const core::FaultStats fs =
      run_lossy(topo, f, ref, "sack heavy loss", &srtt);
  EXPECT_GE(fs.faults_injected_drop, 1u);
  EXPECT_GE(fs.retransmits, 1u);
  EXPECT_GE(fs.fast_retransmits, 1u);  // SACK recovery actually engaged
  EXPECT_GT(srtt, 0u);                 // estimator took samples
}

/// Stale acks outside the live window: heavy duplication replays old
/// ack/sack pairs after the sender has popped past them (and after the
/// receiver's cum advanced past their seqs). Both ends must treat them
/// as no-ops — monotonic acks, idempotent SACK marks, dedup consumption.
TEST(FaultSack, StaleAcksOutsideWindowAreAbsorbed) {
  const util::Topology topo(8, 1, 1);
  const auto ref = reference_tables(topo);

  fault::FaultConfig f;
  f.drop_rate = 0.1;
  f.dup_rate = 0.3;
  f.delay_ns = 30'000;
  f.delay_rate = 0.5;  // genuine reordering against undelayed peers
  f.seed = 32;
  const core::FaultStats fs = run_lossy(topo, f, ref, "stale acks");
  EXPECT_GE(fs.dup_drops, 1u);
}

/// A one-message window forces nearly every send through the pacing
/// queue. If paced-but-unsent data were invisible to in_flight(),
/// quiescence would fire while messages sit in the queue and the run
/// would lose them — bit-for-bit failure (or a hang if the queue could
/// never drain). Completing exactly-once proves the accounting.
TEST(FaultSack, PacingNeverDeadlocksQuiescence) {
  const util::Topology topo(4, 1, 1);
  const auto ref = reference_tables(topo);

  fault::FaultConfig f;
  f.drop_rate = 0.1;
  f.seed = 33;
  f.window_init = 1;
  f.window_max = 2;
  const core::FaultStats fs = run_lossy(topo, f, ref, "tiny window");
  EXPECT_GE(fs.paced_msgs, 1u);          // pacing actually engaged
  EXPECT_LE(fs.max_inflight_msgs, 2u);   // window honored
}

// ---- the window, one ack at a time ----

/// Inner transport that records what the reliability layer hands it and
/// delivers nothing: the test plays the peer by crafting ack headers.
class RecordingTransport final : public rt::Transport {
 public:
  explicit RecordingTransport(std::vector<rt::Message>& sent)
      : sent_(sent) {}
  void send(ProcId, rt::Message&& m) override {
    sent_.push_back(std::move(m));
  }
  std::size_t poll(rt::Process&) override { return 0; }
  std::uint64_t next_due_ns(ProcId) const override { return 0; }
  std::uint64_t in_flight() const override { return 0; }
  std::uint64_t total_messages() const override { return sent_.size(); }
  std::uint64_t total_bytes() const override { return 0; }
  std::uint64_t total_forwarded() const override { return 0; }
  void reset() override { sent_.clear(); }

 private:
  std::vector<rt::Message>& sent_;
};

/// A ReliableTransport for channel 0 -> 1 of a two-process machine, over
/// a RecordingTransport. Nothing runs the machine: every step is a direct
/// call on this thread.
struct WindowRig {
  explicit WindowRig(const fault::FaultConfig& f)
      : machine(util::Topology(2, 1, 1), rt::RuntimeConfig::inline_testing()),
        rel(machine, std::make_unique<RecordingTransport>(sent), f) {}

  /// Data from process 0 to the worker of process 1.
  void send(int n) {
    for (int i = 0; i < n; ++i) {
      rt::Message m;
      m.dst_worker = 1;
      m.src_worker = 0;
      m.payload = util::PayloadPool::global().acquire(8);
      rel.send(0, std::move(m));
    }
  }

  /// Process 1's standalone ack for channel 0 -> 1 arriving at process 0:
  /// every seq before `cum` received, plus the SACK bitmap.
  void ack(std::uint32_t cum, std::uint64_t sack = 0) {
    fault::ReliableHeader h;
    h.kind = fault::ReliableHeader::kAck;
    h.src_proc = 1;
    h.ack = cum;
    h.sack = sack;
    rt::Message m;
    m.dst_worker = 0;
    m.payload = util::PayloadPool::global().acquire(sizeof h);
    std::memcpy(m.payload.data(), &h, sizeof h);
    EXPECT_FALSE(rel.on_inbound(machine.process(0), m));  // consumed
  }

  double cwnd() const { return rel.debug_cwnd(0, 1); }
  std::size_t paced() const { return rel.debug_paced(0, 1); }

  std::vector<rt::Message> sent;
  rt::Machine machine;
  fault::ReliableTransport rel;
};

/// Send a full window and ack all of it, `rounds` times: each round
/// grows cwnd by one message. Returns the next unused sequence number.
std::uint32_t open_window(WindowRig& rig, int rounds) {
  std::uint32_t next = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto n = static_cast<std::uint32_t>(rig.cwnd());
    rig.send(static_cast<int>(n));
    next += n;
    rig.ack(next);
  }
  EXPECT_EQ(rig.paced(), 0u);
  return next;
}

/// NewReno's recovery point is the highest sequence *transmitted*. Paced
/// messages already hold sequence numbers; were they counted, an episode
/// begun with a backlog would last until the whole backlog was acked, and
/// the window could not grow at the ack that repairs the loss.
TEST(FaultWindow, RecoveryEndsAtHighestTransmittedSeq) {
  fault::FaultConfig f;
  f.window_init = 2;
  WindowRig rig(f);
  const std::uint32_t base = open_window(rig, 2);
  ASSERT_DOUBLE_EQ(rig.cwnd(), 4.0);

  rig.send(8);  // seq base..base+3 transmit (cwnd 4), 4 more are paced
  ASSERT_EQ(rig.paced(), 4u);
  const std::size_t sent_before = rig.sent.size();

  // base lost, base+1 arrived: SACK bit 0 names base+1, so base is a
  // hole below the highest SACKed seq and goes out again at once.
  rig.ack(base, 1);
  EXPECT_EQ(rig.rel.fast_retransmits(), 1u);
  EXPECT_EQ(rig.sent.size(), sent_before + 1);
  const double halved = rig.cwnd();
  EXPECT_DOUBLE_EQ(halved, 2.0);  // 4 / 2, and not below window_init
  EXPECT_EQ(rig.paced(), 4u);     // 3 live in flight, window 2

  // The retransmit lands: the cumulative ack covers every transmitted
  // message. Recovery is over, so this ack grows the window, and the
  // window starts draining the backlog.
  rig.ack(base + 4);
  EXPECT_GT(rig.cwnd(), halved);
  EXPECT_LT(rig.paced(), 4u);
}

/// A timeout restarts the channel at its starting window. A host stall
/// longer than the RTO fires the timer with nothing lost, so the window
/// comes back to window_init, never below it.
TEST(FaultWindow, TimeoutRestartsAtWindowInit) {
  fault::FaultConfig f;
  f.window_init = 4;
  f.rto_ns = 1;  // pinned: any poll after a send is past the deadline
  WindowRig rig(f);
  open_window(rig, 1);
  ASSERT_DOUBLE_EQ(rig.cwnd(), 5.0);

  rig.send(5);
  while (rig.rel.rto_fires() == 0) rig.rel.poll(rig.machine.process(0));
  EXPECT_DOUBLE_EQ(rig.cwnd(), 4.0);

  // A second timeout in the same episode does not go lower.
  while (rig.rel.rto_fires() == 1) rig.rel.poll(rig.machine.process(0));
  EXPECT_DOUBLE_EQ(rig.cwnd(), 4.0);
}

}  // namespace
