#pragma once
///
/// \file fault_schedule.hpp
/// \brief Deterministic, replayable fault schedule.
///
/// The fate of a packet is a pure function of (seed, src, dst, kind, seq,
/// attempt): no stream state is consumed, so the schedule does not depend
/// on thread interleaving or on how many acks/retransmits happened to be
/// sent in between — the same seed replays the same fates for the same
/// packet identities, every run. fault::Reliability asks it about each
/// wire copy as it emits one, keyed on the identity it already holds: the
/// channel, the sequence number, and the attempt its retransmit queue
/// counts (SendEntry::rtx_count), not a header re-parsed off the wire.
/// That attempt count is also what keeps retransmits honest: attempt k+1
/// of a sequence number draws a fresh fate, so a dropped packet is not
/// doomed to be re-dropped forever.
///
/// Scope of the guarantee: *first-attempt data fates* are bit-for-bit
/// reproducible whenever the application's send sequence is (seq numbers
/// are assigned in per-channel send order). Retransmit attempts and
/// standalone acks exist only because of wall-clock timeouts, so how many
/// of those fates get drawn — and, for acks, the ordinal they are keyed
/// on — varies run to run; aggregate fault counters on a lossy run are
/// reproducible in distribution, not exactly.

#include <cstdint>

#include "fault/fault_config.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace tram::fault {

/// What the fault layer does to one wire copy. drop and dup compose: a
/// packet can be dropped *and* duplicated, in which case exactly one copy
/// survives — the dedup window's favourite corner case.
struct Fate {
  bool drop = false;
  bool dup = false;
  std::uint64_t extra_delay_ns = 0;

  bool faulty() const noexcept { return drop || dup || extra_delay_ns > 0; }
};

class FaultSchedule {
 public:
  explicit FaultSchedule(const FaultConfig& cfg) noexcept : cfg_(cfg) {}

  const FaultConfig& config() const noexcept { return cfg_; }

  /// The fate of attempt `attempt` of sequence `seq` on channel
  /// (src -> dst). Pure: same arguments + same seed give the same fate.
  Fate fate(ProcId src, ProcId dst, std::uint8_t kind, std::uint32_t seq,
            std::uint32_t attempt) const noexcept {
    // Fold the packet identity into a splitmix64 chain; each fold passes
    // through the mixer so nearby identities give unrelated draws.
    std::uint64_t sm = cfg_.seed;
    sm ^= util::splitmix64(sm) ^
          ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(dst));
    sm ^= util::splitmix64(sm) ^
          ((static_cast<std::uint64_t>(kind) << 56) ^
           (static_cast<std::uint64_t>(attempt) << 32) ^ seq);
    Fate f;
    f.drop = draw(sm) < cfg_.drop_rate;
    f.dup = draw(sm) < cfg_.dup_rate;
    if (cfg_.delay_ns > 0 && draw(sm) < cfg_.delay_rate) {
      f.extra_delay_ns = cfg_.delay_ns;
    }
    return f;
  }

 private:
  static double draw(std::uint64_t& sm) noexcept {
    return static_cast<double>(util::splitmix64(sm) >> 11) * 0x1.0p-53;
  }

  FaultConfig cfg_;
};

}  // namespace tram::fault
