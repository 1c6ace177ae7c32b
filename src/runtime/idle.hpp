#pragma once
///
/// \file idle.hpp
/// \brief The idle ladder: how a runtime thread with nothing to do backs
/// off, shared by Worker::scheduler_loop and CommThread::run.
///
/// Indexed by the count of consecutive idle rounds (any work resets it):
///
///   rounds [0, 256)     spin   cpu_relax()
///   rounds [256, 272)   yield  std::this_thread::yield()
///   rounds 272 and on   nap    sleep kIdleNapNs (20 us)
///
/// A worker runs every idle hook it holds on every 8th spin round and on
/// every yield and nap round, so a due request or a buffered item waits at
/// most one nap. The cadence is the same for every hook: TramLib's and
/// RoutedDomain's flush-on-idle, SsspApp's delta-stepping threshold
/// advance, and open-loop request generators. A non-SMP worker is also its
/// process's comm pump, so it yields where an SMP thread would nap.
///
/// Runtime threads sleep with a 1 ns timer slack
/// (util::tighten_timer_slack), so a nap lasts about as long as asked.
///
/// idle_step() is a pure function of the round, testable without a clock;
/// idle_wait() carries a step out.

#include <cstdint>

namespace tram::rt {

inline constexpr std::uint32_t kIdleSpinRounds = 256;
inline constexpr std::uint32_t kIdleYieldRounds = 16;
inline constexpr std::uint64_t kIdleNapNs = 20'000;
/// Spin rounds run the idle hooks only this often: a hook may read the
/// clock, and the spin phase is meant to be cheap.
inline constexpr std::uint32_t kIdleHookEvery = 8;

enum class IdleAction : std::uint8_t { kSpin, kYield, kNap };

struct IdleStep {
  IdleAction action;
  /// Whether a worker runs its idle hooks in this round.
  bool run_hooks;
};

/// The step for idle round `round` (0 = first idle round after work).
/// may_nap is false for a non-SMP worker.
constexpr IdleStep idle_step(std::uint32_t round, bool may_nap) noexcept {
  if (round < kIdleSpinRounds) {
    return {IdleAction::kSpin, round % kIdleHookEvery == 0};
  }
  if (round < kIdleSpinRounds + kIdleYieldRounds || !may_nap) {
    return {IdleAction::kYield, true};
  }
  return {IdleAction::kNap, true};
}

/// Carry out one idle action.
void idle_wait(IdleAction action) noexcept;

}  // namespace tram::rt
