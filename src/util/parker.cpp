#include "util/parker.hpp"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>
#else
#include <algorithm>
#include <chrono>
#include <thread>
#endif

namespace tram::util {

namespace {

#if defined(__linux__)
static_assert(sizeof(std::atomic<std::uint32_t>) == sizeof(std::uint32_t) &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "the futex word must be a plain 32-bit integer");

std::uint32_t* futex_word(std::atomic<std::uint32_t>& a) noexcept {
  return reinterpret_cast<std::uint32_t*>(&a);
}

/// Sleep while *word == expected, at most timeout_ns (kForever: no limit).
void futex_wait(std::atomic<std::uint32_t>& word, std::uint32_t expected,
                std::uint64_t timeout_ns) noexcept {
  timespec ts{};
  const timespec* tsp = nullptr;
  if (timeout_ns != Parker::kForever) {
    ts.tv_sec = static_cast<std::time_t>(timeout_ns / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
    tsp = &ts;
  }
  // Any return (woken, timed out, EINTR, EAGAIN because the word already
  // changed) is handled alike by the caller: it re-reads the word.
  ::syscall(SYS_futex, futex_word(word), FUTEX_WAIT_PRIVATE, expected, tsp,
            nullptr, 0);
}

void futex_wake_one(std::atomic<std::uint32_t>& word) noexcept {
  ::syscall(SYS_futex, futex_word(word), FUTEX_WAKE_PRIVATE, 1, nullptr,
            nullptr, 0);
}
#else
/// Longest sleep of one park_for() where there is no futex.
constexpr std::uint64_t kFallbackNapNs = 20'000;
#endif

}  // namespace

void Parker::unpark() noexcept {
  if (state_.exchange(kNotified, std::memory_order_release) == kParked) {
#if defined(__linux__)
    futex_wake_one(state_);
#endif
  }
}

Parker::Wake Parker::park_for(std::uint64_t timeout_ns) noexcept {
  // NOTIFIED -> EMPTY (consume the pending wake-up) or EMPTY -> PARKED.
  if (state_.fetch_sub(1, std::memory_order_acquire) == kNotified) {
    return Wake::kPending;
  }
#if defined(__linux__)
  futex_wait(state_, kParked, timeout_ns);
#else
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(std::min(timeout_ns, kFallbackNapNs)));
#endif
  // Back to EMPTY; NOTIFIED here means an unpark() ended (or raced) the
  // sleep.
  return state_.exchange(kEmpty, std::memory_order_acquire) == kNotified
             ? Wake::kUnparked
             : Wake::kTimedOut;
}

}  // namespace tram::util
