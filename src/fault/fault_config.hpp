#pragma once
///
/// \file fault_config.hpp
/// \brief Fault-injection knobs for the transport chain (src/fault/).
///
/// An all-zero config (the default) means the Machine builds the exact
/// transport it built before this subsystem existed — no decorators, no
/// headers, no per-message cost. Any nonzero fault knob makes the Machine
/// wrap the base transport in FaultyTransport (injects the faults) and
/// ReliableTransport (restores exactly-once on top of them); the two are
/// always installed together, because a lossy fabric without the recovery
/// protocol would simply hang quiescence on the first dropped packet.

#include <cstdint>
#include <stdexcept>

namespace tram::fault {

struct FaultConfig {
  /// Probability that a packet handed to the fabric vanishes.
  double drop_rate = 0.0;
  /// Probability that a packet is injected twice.
  double dup_rate = 0.0;
  /// Extra holding time applied to delayed packets, nanoseconds. Faults
  /// are injected only when this (or a rate above) is nonzero.
  std::uint64_t delay_ns = 0;
  /// Fraction of packets that pay delay_ns (1.0 = every packet). Values
  /// below 1 reorder packets against their undelayed peers, which is what
  /// exercises the receiver's out-of-order dedup window.
  double delay_rate = 1.0;
  /// Seed of the fault schedule. The fate of every (channel, seq, attempt)
  /// is a pure function of this seed — schedules replay bit-for-bit.
  std::uint64_t seed = 0x7a31;

  /// Retransmit timeout. 0 derives it from the machine's cost model:
  /// a few modeled round trips plus the injected delay (see
  /// ReliableTransport), floored so zero-cost test models still converge.
  /// When 0 the timer adapts to the measured per-channel RTT (Jacobson
  /// srtt/rttvar, exponential backoff on repeat loss); a nonzero value
  /// pins it, so experiments that fix rto_ns replay with an exactly known
  /// timeout.
  std::uint64_t rto_ns = 0;
  /// Holdoff before a receiver sends a standalone cumulative ack for
  /// inbound data no reverse traffic has piggybacked yet. 0 = rto / 8.
  std::uint64_t ack_delay_ns = 0;

  /// AIMD send window, in messages per channel: start at window_init,
  /// grow additively on ack progress up to window_max, halve once per
  /// loss episode, and restart at window_init on a timeout. window_init
  /// is also the floor: a host stall that fires the timer without any
  /// loss must not leave the channel carrying less than it started with.
  /// Messages past the window are paced — queued sender-side, still
  /// counted in in_flight() so quiescence detection cannot fire while
  /// they wait.
  std::uint32_t window_init = 8;
  std::uint32_t window_max = 64;

  /// Whether any fault is configured (and thus whether the Machine
  /// installs the faulty + reliable transport decorators).
  bool enabled() const noexcept {
    return drop_rate > 0.0 || dup_rate > 0.0 || delay_ns > 0;
  }

  /// Rates past ~0.9 make retransmission convergence geometric-in-name-only
  /// (and 1.0 would never deliver anything); reject loudly instead of
  /// hanging quiescence detection.
  void validate() const {
    if (drop_rate < 0.0 || drop_rate > 0.9) {
      throw std::invalid_argument("FaultConfig: drop_rate must be in [0, 0.9]");
    }
    if (dup_rate < 0.0 || dup_rate > 0.9) {
      throw std::invalid_argument("FaultConfig: dup_rate must be in [0, 0.9]");
    }
    if (delay_rate < 0.0 || delay_rate > 1.0) {
      throw std::invalid_argument("FaultConfig: delay_rate must be in [0, 1]");
    }
    // A held packet blocks quiescence for its full delay; anything past a
    // minute is a wrapped negative or a typo, not an experiment.
    if (delay_ns > 60'000'000'000ULL) {
      throw std::invalid_argument(
          "FaultConfig: delay_ns must be at most 60s");
    }
    // A zero window would never transmit, wedging quiescence with
    // paced-forever messages.
    if (window_init < 1) {
      throw std::invalid_argument("FaultConfig: window_init must be >= 1");
    }
    if (window_init > window_max) {
      throw std::invalid_argument(
          "FaultConfig: need window_init <= window_max");
    }
    // The SACK bitmap must be able to name every in-flight sequence past
    // the cumulative ack; a window wider than the bitmap would leave
    // unreportable holes that only the timer could recover.
    if (window_max > 64) {
      throw std::invalid_argument(
          "FaultConfig: window_max must be <= 64 (SACK bitmap width)");
    }
  }
};

}  // namespace tram::fault
