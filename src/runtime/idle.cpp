#include "runtime/idle.hpp"

#include <thread>

#include "trace/trace.hpp"
#include "util/parker.hpp"
#include "util/spinlock.hpp"

namespace tram::rt {

void idle_wait(IdleAction action, util::Parker& parker, std::uint64_t park_ns,
               bool hint_cut) noexcept {
  switch (action) {
    case IdleAction::kSpin:
      util::cpu_relax();
      return;
    case IdleAction::kYield:
      std::this_thread::yield();
      return;
    case IdleAction::kPark:
      break;
  }
  const std::uint64_t t0 = trace::maybe_now();
  const util::Parker::Wake wake = parker.park_for(park_ns);
  if (wake == util::Parker::Wake::kPending) return;  // did not sleep
  trace::complete(trace::Cat::kRuntime, trace::kPark, t0,
                  wake == util::Parker::Wake::kUnparked ? 1u : 0u,
                  hint_cut ? 1u : 0u);
}

}  // namespace tram::rt
