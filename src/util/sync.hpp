#pragma once
///
/// \file sync.hpp
/// \brief Compile-time synchronization seam for the lock-free primitives.
///
/// Every lock-free concurrency primitive in util/ (mpsc_queue, spsc_ring,
/// spinlock, PayloadPool refcounts) is templated on a Sync policy that
/// supplies its atomics. The exception is util::Parker, whose futex wait
/// blocks in the kernel where the token scheduler below cannot follow
/// (parker.hpp says how it is checked instead). Three policies exist:
///
///  - RealSync: std::atomic with the memory orders written at each call
///    site. This is what ships; the relaxed orders on the hot paths are
///    only legal because the other two policies exist to check them.
///  - ConservativeSync: every operation upgraded to seq_cst. The
///    "before" baseline for the micro-benchmarks, so each relaxation
///    lands with a measured delta rather than an assertion of speed.
///  - DebugSync: seq_cst plus a call into DebugScheduler::sync_point()
///    before every atomic operation. Under DebugScheduler::run() exactly
///    one thread executes at a time and every atomic op is a potential
///    deterministic, seeded context switch — a poor man's model checker
///    that explores adversarial interleavings reproducibly.
///
/// DefaultSync is RealSync normally and DebugSync when the build defines
/// TRAM_SYNC_DEBUG (CMake option of the same name), so the exact shipping
/// primitive code — same template body, same orders requested — runs under
/// the deterministic scheduler without a parallel implementation to drift.
///
/// Outside a DebugScheduler::run() region, DebugSync atomics degrade to
/// plain seq_cst atomics (sync_point() no-ops for unmanaged threads), so a
/// TRAM_SYNC_DEBUG build still runs the full runtime correctly, just
/// slower.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

// TSan cannot model standalone memory fences (gcc emits -Wtsan on
// atomic_thread_fence): code relying on the release-decrement +
// acquire-fence-on-zero refcount pattern checks TRAM_TSAN_FENCES and
// falls back to acq_rel operations the checker can see. Clang spells
// the detection differently from gcc's __SANITIZE_THREAD__.
#if !defined(TRAM_TSAN_FENCES) && defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TRAM_TSAN_FENCES 1
#endif
#endif

namespace tram::util {

/// Deterministic token-passing scheduler used by DebugSync.
///
/// run() spawns one OS thread per function but admits exactly one at a
/// time: a token moves between threads, and every DebugSync atomic
/// operation offers to pass it (sync_point()). The next holder is drawn
/// from a splitmix64 stream seeded by the caller, so a given (seed, code)
/// pair replays the identical interleaving — a failing seed is a
/// reproducer, not a flake. Threads not created by run() (including the
/// caller) skip sync points entirely, so the scheduler composes with the
/// rest of the process.
class DebugScheduler {
 public:
  /// Execute `fns` to completion under scheduler control. Serializing:
  /// returns only after every function has finished. Not reentrant.
  static void run(std::uint64_t seed, std::vector<std::function<void()>> fns);

  /// Yield point: called by DebugSync before every atomic op. No-op on
  /// unmanaged threads or outside run().
  static void sync_point();

  /// Context switches performed by the last completed run() — test
  /// introspection (same seed must give the same count).
  static std::uint64_t switches();
};

namespace sync_detail {

/// std::atomic facade that ignores the requested memory order and runs
/// everything seq_cst; with kYield it also offers a DebugScheduler context
/// switch before each operation. Member functions are instantiated lazily,
/// so pointer specializations never touch fetch_add/fetch_sub.
template <typename T, bool kYield>
class SeqCstAtomic {
 public:
  SeqCstAtomic() noexcept = default;
  constexpr SeqCstAtomic(T v) noexcept : a_(v) {}
  SeqCstAtomic(const SeqCstAtomic&) = delete;
  SeqCstAtomic& operator=(const SeqCstAtomic&) = delete;

  T load(std::memory_order = std::memory_order_seq_cst) const noexcept {
    yield();
    return a_.load(std::memory_order_seq_cst);
  }
  void store(T v, std::memory_order = std::memory_order_seq_cst) noexcept {
    yield();
    a_.store(v, std::memory_order_seq_cst);
  }
  T exchange(T v, std::memory_order = std::memory_order_seq_cst) noexcept {
    yield();
    return a_.exchange(v, std::memory_order_seq_cst);
  }
  T fetch_add(T v, std::memory_order = std::memory_order_seq_cst) noexcept {
    yield();
    return a_.fetch_add(v, std::memory_order_seq_cst);
  }
  T fetch_sub(T v, std::memory_order = std::memory_order_seq_cst) noexcept {
    yield();
    return a_.fetch_sub(v, std::memory_order_seq_cst);
  }
  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order = std::memory_order_seq_cst,
      std::memory_order = std::memory_order_seq_cst) noexcept {
    yield();
    return a_.compare_exchange_weak(expected, desired,
                                    std::memory_order_seq_cst,
                                    std::memory_order_seq_cst);
  }
  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order = std::memory_order_seq_cst,
      std::memory_order = std::memory_order_seq_cst) noexcept {
    yield();
    return a_.compare_exchange_strong(expected, desired,
                                      std::memory_order_seq_cst,
                                      std::memory_order_seq_cst);
  }

 private:
  static void yield() noexcept {
    if constexpr (kYield) DebugScheduler::sync_point();
  }
  std::atomic<T> a_;
};

}  // namespace sync_detail

/// Shipping policy: plain std::atomic, orders as written at the call site.
struct RealSync {
  static constexpr bool kDebug = false;
  template <typename T>
  using Atomic = std::atomic<T>;
  static void fence(std::memory_order mo) noexcept {
    std::atomic_thread_fence(mo);
  }
};

/// Everything seq_cst: the measured "before" for each relaxation.
struct ConservativeSync {
  static constexpr bool kDebug = false;
  template <typename T>
  using Atomic = sync_detail::SeqCstAtomic<T, /*kYield=*/false>;
  static void fence(std::memory_order) noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
};

/// Seq_cst plus a deterministic-scheduler yield before every operation.
struct DebugSync {
  static constexpr bool kDebug = true;
  template <typename T>
  using Atomic = sync_detail::SeqCstAtomic<T, /*kYield=*/true>;
  static void fence(std::memory_order) noexcept {
    DebugScheduler::sync_point();
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }
};

#if defined(TRAM_SYNC_DEBUG)
using DefaultSync = DebugSync;
inline constexpr bool kSyncDebugBuild = true;
#else
using DefaultSync = RealSync;
inline constexpr bool kSyncDebugBuild = false;
#endif

}  // namespace tram::util
