#include "runtime/idle.hpp"

#include <chrono>
#include <thread>

#include "util/spinlock.hpp"

namespace tram::rt {

void idle_wait(IdleAction action) noexcept {
  switch (action) {
    case IdleAction::kSpin:
      util::cpu_relax();
      break;
    case IdleAction::kYield:
      std::this_thread::yield();
      break;
    case IdleAction::kNap:
      std::this_thread::sleep_for(std::chrono::nanoseconds(kIdleNapNs));
      break;
  }
}

}  // namespace tram::rt
