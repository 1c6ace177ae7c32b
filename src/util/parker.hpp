#pragma once
///
/// \file parker.hpp
/// \brief Sleep until woken: one thread parks, any thread unparks it.
///
/// An idle runtime thread parks here, and whoever hands it work (a message
/// in its inbox, a push onto its egress ring, a transport deadline) unparks
/// it. The protocol is the one of Rust's futex-based std::thread::park:
/// one 32-bit futex word with three states,
///
///   EMPTY     no wake-up pending, owner not asleep
///   NOTIFIED  an unpark() arrived that no park has consumed yet
///   PARKED    the owner is asleep (or about to be) in the futex wait
///
///  - unpark() exchanges NOTIFIED in (release) and issues FUTEX_WAKE only
///    when the value it replaced was PARKED, so waking a thread that is
///    awake costs one atomic exchange and no system call.
///  - park_for() turns NOTIFIED into EMPTY and returns at once, or turns
///    EMPTY into PARKED and waits on the word while it still reads PARKED.
///    Either way its acquire pairs with the unpark()'s release: whatever
///    the unparker wrote before unpark() (the queued message) is visible
///    after park_for() returns.
///
/// No wake-up is lost: an unpark() that lands between the owner's last
/// poll and its futex wait leaves NOTIFIED (or changes the word, so the
/// kernel refuses to sleep), and the park returns at once. A park may also
/// return without an unpark (timeout, signal); every caller polls for
/// work again after a park, so that costs one loop.
///
/// Off Linux there is no futex: park_for() sleeps at most 20 us, which
/// callers' re-polling makes safe.
///
/// Parker is the one util/ primitive outside the Sync seam (sync.hpp): its
/// point is a blocking futex wait, which DebugScheduler cannot model (a
/// thread that holds the token and sleeps in the kernel stalls every other
/// managed thread). util_parker_test's producer stress test, run under
/// TSan in CI, checks the EMPTY / NOTIFIED / PARKED orders instead.

#include <atomic>
#include <cstdint>

namespace tram::util {

class Parker {
 public:
  /// park_for() timeout meaning "until unparked".
  static constexpr std::uint64_t kForever = ~std::uint64_t{0};

  /// How a park_for() ended.
  enum class Wake : std::uint8_t {
    /// An unpark() was already pending: returned without sleeping.
    kPending,
    /// Slept; an unpark() ended the sleep.
    kUnparked,
    /// Slept; the timeout (or a spurious wake-up) ended it.
    kTimedOut,
  };

  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;

  /// Wake the owner, or make its next park_for() return at once.
  /// Any thread.
  void unpark() noexcept;

  /// Owner thread only. Consume a pending unpark(), or sleep until one
  /// arrives or timeout_ns pass (kForever: no timeout).
  Wake park_for(std::uint64_t timeout_ns) noexcept;

 private:
  static constexpr std::uint32_t kEmpty = 0;
  static constexpr std::uint32_t kNotified = 1;
  static constexpr std::uint32_t kParked = ~std::uint32_t{0};

  std::atomic<std::uint32_t> state_{kEmpty};
};

}  // namespace tram::util
