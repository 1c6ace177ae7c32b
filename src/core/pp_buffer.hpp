#pragma once
///
/// \file pp_buffer.hpp
/// \brief The PP scheme's process-shared aggregation buffer.
///
/// One PpBuffer per (source process, destination process). All workers of
/// the source process insert concurrently; the paper: "this coalescing in
/// the source process is achieved using atomics". Design:
///
///  - state_ packs (epoch << 32) | reserved. A writer claims slot
///    `reserved` with a bounded CAS (increment only while reserved < g);
///    the CAS-retry count is the paper's "overhead of atomics".
///  - committed_ counts completed slot writes. The writer whose commit
///    makes the buffer full becomes the *sealer*: it detaches the filled
///    slab, installs a fresh one from the payload pool, resets committed_,
///    bumps the epoch with reserved = 0 (reopening the buffer), and ships
///    the detached slab — no copy. Writers that observe reserved >= g spin
///    briefly until the sealer reopens.
///  - flush() (partial send) blocks new claims by CASing reserved to g,
///    waits for in-flight slot writes to commit, detaches/replaces the
///    slab the same way, and reopens. The epoch in the high bits makes
///    claim CASes ABA-safe across reopen.
///
/// Slots live in a pooled payload slab (util::PayloadPool): the sealed
/// buffer IS the outgoing message payload, and the replacement slab is a
/// recycled one in steady state, so the seal path neither copies nor
/// allocates. The swap is safe because a new-epoch writer can only read
/// the slab pointer after the release store that reopens state_, which
/// happens after the swap; old-epoch writers have all committed before the
/// sealer runs.
///
/// The atomics and the flush lock come from the Sync seam (util/sync.hpp),
/// so core_pp_buffer_test can run the claim protocol under
/// util::DebugScheduler's seeded interleavings.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>

#include "util/payload_pool.hpp"
#include "util/spinlock.hpp"

namespace tram::core {

template <typename Entry, typename Sync = util::DefaultSync>
class PpBuffer {
 public:
  explicit PpBuffer(std::uint32_t capacity)
      : buf_(util::PayloadPool::global().acquire(std::size_t{capacity} *
                                                 sizeof(Entry))),
        cap_(capacity) {}

  PpBuffer(const PpBuffer&) = delete;
  PpBuffer& operator=(const PpBuffer&) = delete;

  /// Insert one entry. Returns the full buffer contents (as a pooled,
  /// ready-to-ship batch) when the caller became the sealer and must ship
  /// them; nullopt otherwise. Thread-safe. cas_retries is incremented for
  /// every failed claim attempt.
  std::optional<util::PooledBatch<Entry>> insert(const Entry& e,
                                                 std::uint64_t& cas_retries) {
    for (;;) {
      std::uint64_t s = state_.load(std::memory_order_acquire);
      const auto reserved = static_cast<std::uint32_t>(s);
      if (reserved >= cap_) {
        // Buffer full; the sealer (or a flusher) is reopening it.
        util::cpu_relax();
        ++cas_retries;
        continue;
      }
      if (!state_.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        ++cas_retries;
        continue;
      }
      slots()[reserved] = e;
      // acq_rel: release publishes our slot write; acquire synchronizes the
      // sealer with every earlier writer's release.
      const std::uint32_t c =
          committed_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (c == cap_) {
        util::PayloadRef out = detach_and_replace();
        committed_.store(0, std::memory_order_relaxed);
        const std::uint64_t epoch = s >> 32;
        state_.store((epoch + 1) << 32, std::memory_order_release);
        return util::PooledBatch<Entry>(std::move(out));
      }
      return std::nullopt;
    }
  }

  /// Ship whatever is buffered (possibly nothing). Returns the partial
  /// contents, or nullopt when the buffer is empty. Thread-safe; concurrent
  /// flushes serialize on an internal lock, and flush-vs-insert races are
  /// resolved by the same claim protocol.
  std::optional<util::PooledBatch<Entry>> flush() {
    std::lock_guard<util::BasicSpinlock<Sync>> guard(flush_mu_);
    for (;;) {
      std::uint64_t s = state_.load(std::memory_order_acquire);
      const auto reserved = static_cast<std::uint32_t>(s);
      if (reserved == 0) return std::nullopt;
      if (reserved >= cap_) {
        // A writer-seal is completing; once it reopens, re-evaluate.
        util::cpu_relax();
        continue;
      }
      // Close the buffer to new claims.
      const std::uint64_t closed = (s & ~std::uint64_t{0xffffffff}) | cap_;
      if (!state_.compare_exchange_weak(s, closed,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        continue;
      }
      // Wait for the claimed writers to finish their slot writes.
      while (committed_.load(std::memory_order_acquire) != reserved) {
        util::cpu_relax();
      }
      util::PayloadRef out = detach_and_replace();
      out.resize(std::size_t{reserved} * sizeof(Entry));
      committed_.store(0, std::memory_order_relaxed);
      const std::uint64_t epoch = s >> 32;
      state_.store((epoch + 1) << 32, std::memory_order_release);
      return util::PooledBatch<Entry>(std::move(out));
    }
  }

  /// Approximate occupancy (claims in the current epoch, capped).
  std::uint32_t size_approx() const {
    const auto r = static_cast<std::uint32_t>(
        state_.load(std::memory_order_acquire));
    return r > cap_ ? cap_ : r;
  }

  std::uint32_t capacity() const noexcept { return cap_; }

 private:
  Entry* slots() noexcept { return reinterpret_cast<Entry*>(buf_.data()); }

  /// Detach the filled slab and install a fresh (recycled) one. Only the
  /// sealer/flusher runs this, after all claimed writes have committed and
  /// before the reopening release store.
  util::PayloadRef detach_and_replace() {
    util::PayloadRef out = std::move(buf_);
    buf_ = util::PayloadPool::global().acquire(std::size_t{cap_} *
                                               sizeof(Entry));
    return out;
  }

  util::PayloadRef buf_;
  const std::uint32_t cap_;
  /// (epoch << 32) | reserved-slot-count.
  alignas(util::kCacheLine) typename Sync::template Atomic<std::uint64_t>
      state_{0};
  alignas(util::kCacheLine) typename Sync::template Atomic<std::uint32_t>
      committed_{0};
  util::BasicSpinlock<Sync> flush_mu_;
};

}  // namespace tram::core
