#pragma once
///
/// \file timebase.hpp
/// \brief Nanosecond clock helpers, a clock-polling busy-wait, and the
/// timer-slack setting runtime threads sleep under.
///
/// The simulated fabric and comm threads need to *consume* modeled time (an
/// alpha of a few microseconds, a per-message processing cost of hundreds of
/// nanoseconds); those delays are burned with a spin on the clock. Waits the
/// runtime does not model (idle naps, sleeping toward a future arrival)
/// use sleep_for(), which on Linux wakes late by the thread's timer slack
/// (50 us by default) unless tighten_timer_slack() shrank it. All
/// wall-clock timing in benchmarks goes through now_ns().

#include <cstdint>

namespace tram::util {

/// Monotonic wall-clock time in nanoseconds (steady_clock).
std::uint64_t now_ns() noexcept;

/// Busy-wait for approximately ns nanoseconds, polling now_ns() with
/// cpu_relax() in the loop; accurate to about one clock read (tens of
/// nanoseconds). ns == 0 returns immediately.
void spin_for_ns(std::uint64_t ns) noexcept;

/// Set the calling thread's timer slack to 1 ns (Linux), so its timed
/// sleeps end at their deadline plus the wake-up latency, rather than up
/// to the default 50 us slack past it. Threads this thread creates
/// afterwards inherit the setting. No-op off Linux.
void tighten_timer_slack() noexcept;

}  // namespace tram::util
