#pragma once
///
/// \file idle.hpp
/// \brief The idle ladder: how a runtime thread with nothing to do backs
/// off, shared by Worker::scheduler_loop and CommThread::run.
///
/// Indexed by the count of consecutive idle rounds (any work resets it).
/// When every runtime thread has a CPU of its own:
///
///   rounds [0, 256)     spin   cpu_relax()
///   rounds [256, 272)   yield  std::this_thread::yield()
///   rounds 272 and on   park   on the thread's util::Parker
///
/// When an SMP machine's runtime threads outnumber the CPUs in the
/// affinity mask (Machine::idle_spin() is false), the spin rounds are
/// skipped: 16 yields, then park. A spinning thread there holds a CPU the
/// thread with work needs; a yield hands it over. Non-SMP workers always
/// spin first.
///
/// Parking ends when whoever gives the thread work unparks it (see
/// Worker::enqueue, Machine::wake_comm). A worker parks for at most
/// kIdleNapNs, because its idle hooks have deadlines the runtime cannot
/// see; the comm thread parks until its transport's next due time, or
/// with no timeout when nothing is due. Runtime threads run with a 1 ns
/// timer slack (util::tighten_timer_slack), so a timed park lasts about
/// as long as asked.
///
/// A thread that knows when its next work lands parks toward it:
/// park_budget_ns() ends the park kWakeLeadNs before that due time, and
/// a due time at most kParkMinGapNs away is not worth a park at all. The
/// comm thread's due time is its transport's next_due_ns(); inside the
/// gap it spins in chunks of at most kDueSpinNs and polls again. A
/// worker's is the arrival hint its process's pump publishes
/// (Worker::next_arrival_ns, set by ModeledFabricTransport::poll); inside
/// the gap the worker takes its ladder's non-park action instead (spin
/// when Machine::idle_spin(), else yield), so it is awake when the packet
/// lands and the delivery needs no futex wake.
///
/// A worker runs every idle hook it holds on every 8th spin round and on
/// every yield and park round, so a due request or a buffered item waits
/// at most one nap. The cadence is the same for every hook: TramLib's
/// flush-on-idle, SsspApp's delta-stepping threshold
/// advance, and open-loop request generators. A non-SMP worker is also
/// its process's comm pump, so it yields where an SMP thread would park.
///
/// idle_step() and park_budget_ns() are pure functions, testable without
/// a clock; idle_wait() carries a step out.

#include <cstdint>

namespace tram::util {
class Parker;
}

namespace tram::rt {

inline constexpr std::uint32_t kIdleSpinRounds = 256;
inline constexpr std::uint32_t kIdleYieldRounds = 16;
/// Longest park of an idle SMP worker: how often its idle hooks run.
inline constexpr std::uint64_t kIdleNapNs = 20'000;
/// Spin rounds run the idle hooks only this often: a hook may read the
/// clock, and the spin phase is meant to be cheap.
inline constexpr std::uint32_t kIdleHookEvery = 8;
/// A park toward a known due time ends this long before it, so the
/// thread's wake-up latency is spent before the due time, not after it.
inline constexpr std::uint64_t kWakeLeadNs = 10'000;
/// A thread whose due time is at most this far off stays awake: a park
/// shorter than kParkMinGapNs - kWakeLeadNs costs more in its futex
/// round trip than it saves.
inline constexpr std::uint64_t kParkMinGapNs = 15'000;
/// Longest spin of a comm thread awake inside kParkMinGapNs of its due
/// time before it polls again.
inline constexpr std::uint64_t kDueSpinNs = 2'000;

enum class IdleAction : std::uint8_t { kSpin, kYield, kPark };

struct IdleStep {
  IdleAction action;
  /// Whether a worker runs its idle hooks in this round.
  bool run_hooks;
};

/// The step for idle round `round` (0 = first idle round after work).
/// may_park is false for a non-SMP worker, spin is Machine::idle_spin()
/// (always true when may_park is false).
constexpr IdleStep idle_step(std::uint32_t round, bool may_park,
                             bool spin) noexcept {
  const std::uint32_t spin_rounds = spin ? kIdleSpinRounds : 0;
  if (round < spin_rounds) {
    return {IdleAction::kSpin, round % kIdleHookEvery == 0};
  }
  if (round < spin_rounds + kIdleYieldRounds || !may_park) {
    return {IdleAction::kYield, true};
  }
  return {IdleAction::kPark, true};
}

/// How long a thread about to park for up to cap_ns may sleep when its
/// next due time is `due` (util::now_ns() clock; 0 = none known):
///  - cap_ns when nothing is due, or when `due` passed more than
///    kIdleNapNs ago: a stale worker hint, whose pump is late, must not
///    keep the worker awake;
///  - 0 (do not park) when `due` is at most kParkMinGapNs away, or passed
///    at most kIdleNapNs ago;
///  - otherwise min(cap_ns, due - now - kWakeLeadNs).
/// The comm thread calls it only with due > now.
constexpr std::uint64_t park_budget_ns(std::uint64_t now, std::uint64_t due,
                                       std::uint64_t cap_ns) noexcept {
  if (due == 0 || now > due + kIdleNapNs) return cap_ns;
  if (due <= now + kParkMinGapNs) return 0;
  const std::uint64_t lead_ns = due - now - kWakeLeadNs;
  return lead_ns < cap_ns ? lead_ns : cap_ns;
}

/// Carry out one idle action. A park waits on `parker` for at most
/// park_ns (util::Parker::kForever: until unparked) and, when it sleeps,
/// records one `park` span (trace::kPark; a0 = 1 if an unpark ended it,
/// a1 = hint_cut: 1 if an arrival hint shortened it).
void idle_wait(IdleAction action, util::Parker& parker, std::uint64_t park_ns,
               bool hint_cut = false) noexcept;

}  // namespace tram::rt
