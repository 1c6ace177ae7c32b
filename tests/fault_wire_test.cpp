/// Tests for the fault subsystem's wire format and schedule (src/fault/):
/// ReliableHeader parse validation (truncation / bad magic / unknown kind
/// abort, mirroring parse_routed_header), the seeded fault schedule's
/// bit-for-bit replayability, FaultConfig validation, and the structural
/// guarantee that an all-zero FaultConfig leaves the transport chain
/// undecorated.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <span>
#include <vector>

#include "core/tram_stats.hpp"
#include "fault/fault_config.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/reliable_wire.hpp"
#include "runtime/machine.hpp"

namespace {

using namespace tram;

TEST(ReliableWire, HeaderRoundTrip) {
  fault::ReliableHeader h;
  h.kind = fault::ReliableHeader::kData;
  h.src_proc = 7;
  h.seq = 42;
  h.ack = 41;
  std::array<std::byte, sizeof h> buf{};
  std::memcpy(buf.data(), &h, sizeof h);
  const fault::ReliableHeader parsed = fault::parse_reliable_header(
      std::span<const std::byte>(buf.data(), buf.size()));
  EXPECT_EQ(parsed.magic, fault::ReliableHeader::kMagic);
  EXPECT_EQ(parsed.kind, fault::ReliableHeader::kData);
  EXPECT_EQ(parsed.src_proc, 7);
  EXPECT_EQ(parsed.seq, 42u);
  EXPECT_EQ(parsed.ack, 41u);
}

/// Wire-level validation: truncated, bad-magic, or unknown-kind prefixes
/// are wire corruption and must abort cleanly in every build mode.
TEST(ReliableWireDeathTest, TruncatedOrCorruptHeaderAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::array<std::byte, sizeof(fault::ReliableHeader)> buf{};
  fault::ReliableHeader h;

  // Shorter than the fixed 24-byte prefix.
  EXPECT_DEATH(fault::parse_reliable_header(
                   std::span<const std::byte>(buf.data(), 8)),
               "truncated");

  // Unknown magic.
  h.magic = 0xdeadbeef;
  std::memcpy(buf.data(), &h, sizeof h);
  EXPECT_DEATH(fault::parse_reliable_header(
                   std::span<const std::byte>(buf.data(), buf.size())),
               "bad magic");

  // Valid magic, unknown kind.
  h.magic = fault::ReliableHeader::kMagic;
  h.kind = 9;
  std::memcpy(buf.data(), &h, sizeof h);
  EXPECT_DEATH(fault::parse_reliable_header(
                   std::span<const std::byte>(buf.data(), buf.size())),
               "unknown kind");
}

/// The schedule is a pure function of (seed, packet identity): the same
/// seed replays the same fault decisions bit-for-bit, independent of how
/// many other packets (acks, retransmits) were interleaved.
TEST(FaultSchedule, SameSeedReplaysBitForBit) {
  fault::FaultConfig cfg;
  cfg.drop_rate = 0.2;
  cfg.dup_rate = 0.2;
  cfg.delay_ns = 10'000;
  cfg.delay_rate = 0.5;
  cfg.seed = 1234;
  const fault::FaultSchedule a(cfg);
  const fault::FaultSchedule b(cfg);
  for (ProcId src = 0; src < 4; ++src) {
    for (ProcId dst = 0; dst < 4; ++dst) {
      for (std::uint32_t seq = 0; seq < 64; ++seq) {
        for (std::uint32_t attempt = 0; attempt < 3; ++attempt) {
          const fault::Fate fa = a.fate(
              src, dst, fault::ReliableHeader::kData, seq, attempt);
          const fault::Fate fb = b.fate(
              src, dst, fault::ReliableHeader::kData, seq, attempt);
          EXPECT_EQ(fa.drop, fb.drop);
          EXPECT_EQ(fa.dup, fb.dup);
          EXPECT_EQ(fa.extra_delay_ns, fb.extra_delay_ns);
        }
      }
    }
  }
}

TEST(FaultSchedule, DifferentSeedsDiverge) {
  fault::FaultConfig a_cfg;
  a_cfg.drop_rate = 0.5;
  a_cfg.seed = 1;
  fault::FaultConfig b_cfg = a_cfg;
  b_cfg.seed = 2;
  const fault::FaultSchedule a(a_cfg);
  const fault::FaultSchedule b(b_cfg);
  int differing = 0;
  for (std::uint32_t seq = 0; seq < 256; ++seq) {
    if (a.fate(0, 1, fault::ReliableHeader::kData, seq, 0).drop !=
        b.fate(0, 1, fault::ReliableHeader::kData, seq, 0).drop) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

/// Retransmits draw fresh fates: attempt k+1 of a sequence number must
/// not be condemned to repeat attempt k's drop, or a dropped packet could
/// never get through.
TEST(FaultSchedule, AttemptsDrawFreshFates) {
  fault::FaultConfig cfg;
  cfg.drop_rate = 0.5;
  cfg.seed = 7;
  const fault::FaultSchedule sched(cfg);
  int survived_retry = 0;
  for (std::uint32_t seq = 0; seq < 256; ++seq) {
    if (!sched.fate(0, 1, fault::ReliableHeader::kData, seq, 0).drop)
      continue;
    // First attempt dropped: some retry within a few attempts survives.
    for (std::uint32_t attempt = 1; attempt < 8; ++attempt) {
      if (!sched.fate(0, 1, fault::ReliableHeader::kData, seq, attempt)
               .drop) {
        ++survived_retry;
        break;
      }
    }
  }
  EXPECT_GT(survived_retry, 0);
}

TEST(FaultSchedule, ZeroRatesNeverFault) {
  fault::FaultConfig cfg;  // all zero
  const fault::FaultSchedule sched(cfg);
  for (std::uint32_t seq = 0; seq < 128; ++seq) {
    const fault::Fate f =
        sched.fate(1, 2, fault::ReliableHeader::kData, seq, 0);
    EXPECT_FALSE(f.faulty());
  }
}

TEST(FaultConfig, RejectsUnrecoverableRates) {
  fault::FaultConfig cfg;
  cfg.drop_rate = 0.95;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.drop_rate = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.drop_rate = 0.0;
  cfg.dup_rate = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.dup_rate = 0.0;
  cfg.delay_rate = 2.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // And the machine enforces it at construction.
  rt::RuntimeConfig rt_cfg = rt::RuntimeConfig::inline_testing();
  rt_cfg.fault.drop_rate = 0.95;
  EXPECT_THROW(rt::Machine(util::Topology(2, 1, 1), rt_cfg),
               std::invalid_argument);
}

/// The congestion knobs validate too: a zero-width window could never
/// drain, an inverted window ordering is a config bug, and a window wider
/// than the SACK bitmap would leave holes the bitmap cannot name.
TEST(FaultConfig, RejectsBadCongestionKnobs) {
  fault::FaultConfig ok;
  ok.dup_rate = 0.1;
  EXPECT_NO_THROW(ok.validate());

  fault::FaultConfig cfg = ok;
  cfg.window_init = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ok;
  cfg.window_init = 32;
  cfg.window_max = 16;  // init above max
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = ok;
  cfg.window_max = 128;  // wider than the 64-bit SACK bitmap
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // The machine rejects them at construction just like the rates.
  rt::RuntimeConfig rt_cfg = rt::RuntimeConfig::inline_testing();
  rt_cfg.fault.dup_rate = 0.1;
  rt_cfg.fault.window_init = 0;
  EXPECT_THROW(rt::Machine(util::Topology(2, 1, 1), rt_cfg),
               std::invalid_argument);
}

/// FaultConfig{} (all zero) must leave the transport chain exactly as it
/// was: no decorators, no interceptor, all-zero counters — the structural
/// half of the "no new per-message cost" guarantee (the timing half is
/// fig_routed_histogram's ns/item sanity check).
TEST(FaultConfig, AllZeroLeavesTransportUndecorated) {
  rt::Machine machine(util::Topology(2, 1, 1),
                      rt::RuntimeConfig::testing());
  EXPECT_EQ(machine.fault_layer(), nullptr);
  EXPECT_EQ(machine.reliability(), nullptr);
  EXPECT_EQ(machine.delivery_interceptor(), nullptr);
  const core::FaultStats fs = machine.fault_stats();
  EXPECT_EQ(fs.faults_injected_drop, 0u);
  EXPECT_EQ(fs.faults_injected_dup, 0u);
  EXPECT_EQ(fs.faults_injected_delay, 0u);
  EXPECT_EQ(fs.retransmits, 0u);
  EXPECT_EQ(fs.dup_drops, 0u);
  EXPECT_EQ(fs.acks_sent, 0u);

  // A nonzero config installs the pair — they only ever come together.
  rt::RuntimeConfig faulty_cfg = rt::RuntimeConfig::inline_testing();
  faulty_cfg.fault.dup_rate = 0.1;
  rt::Machine faulty(util::Topology(2, 1, 1), faulty_cfg);
  EXPECT_NE(faulty.fault_layer(), nullptr);
  EXPECT_NE(faulty.reliability(), nullptr);
  EXPECT_NE(faulty.delivery_interceptor(), nullptr);
}

}  // namespace
