#include "util/timebase.hpp"

#include <chrono>

#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "util/spinlock.hpp"

namespace tram::util {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void spin_for_ns(std::uint64_t ns) noexcept {
  if (ns == 0) return;
  const std::uint64_t deadline = now_ns() + ns;
  while (now_ns() < deadline) cpu_relax();
}

void tighten_timer_slack() noexcept {
#if defined(__linux__)
  // 1, not 0: a slack of 0 restores the thread's default.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

}  // namespace tram::util
