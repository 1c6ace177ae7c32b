#pragma once
///
/// \file faulty_transport.hpp
/// \brief Transport decorator that injects drop/duplicate/delay faults.
///
/// Sits between ReliableTransport (above) and the real transport (below):
/// every send consults the deterministic FaultSchedule, keyed on the
/// ReliableHeader identity the layer above just stamped, and either
/// swallows the message (drop), injects it twice (duplicate), or parks it
/// in a per-source holding heap released by that source's own pump thread
/// at poll() time (delay). Held messages count toward in_flight() so
/// quiescence detection never fires under a delayed packet, and the
/// earliest hold feeds next_due_ns() so idle pump threads sleep exactly
/// until the release.
///
/// Threading: send(p, ...), poll(p) and next_due_ns(p) all run on p's
/// pump thread (the rule in runtime/transport.hpp), so the per-source
/// state (holding heap, attempt counters) has one owner and no lock. The
/// aggregate counters stay atomic (read by the QD thread and reporters).

#include <atomic>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "fault/fault_config.hpp"
#include "fault/fault_schedule.hpp"
#include "runtime/transport.hpp"

namespace tram::fault {

class FaultyTransport final : public rt::Transport {
 public:
  FaultyTransport(rt::Machine& machine, std::unique_ptr<rt::Transport> inner,
                  FaultConfig cfg);

  void send(ProcId src_proc, rt::Message&& m) override;
  std::size_t poll(rt::Process& proc) override;
  std::uint64_t next_due_ns(ProcId p) const override;
  std::uint64_t in_flight() const override;
  std::uint64_t total_messages() const override;
  std::uint64_t total_bytes() const override;
  std::uint64_t total_forwarded() const override;
  void reset() override;

  /// Per-fault injection counters (tram_stats' FaultStats block).
  std::uint64_t drops_injected() const noexcept {
    return drops_.load(std::memory_order_relaxed);
  }
  std::uint64_t dups_injected() const noexcept {
    return dups_.load(std::memory_order_relaxed);
  }
  std::uint64_t delays_injected() const noexcept {
    return delays_.load(std::memory_order_relaxed);
  }

 private:
  /// A delayed message waiting for its release time.
  struct Held {
    std::uint64_t due_ns = 0;
    rt::Message m;
  };
  struct HeldLater {
    bool operator()(const Held& a, const Held& b) const noexcept {
      return a.due_ns > b.due_ns;
    }
  };
  /// Cap on the per-source attempt map before it is wholesale-cleared
  /// (see send()); bounds memory on service-length lossy runs.
  static constexpr std::size_t kMaxAttemptEntries = std::size_t{1} << 20;

  /// Per-source state, owned by that source's pump thread.
  struct SrcState {
    std::priority_queue<Held, std::vector<Held>, HeldLater> held;
    /// Next attempt ordinal per (dst, seq) data identity — what lets the
    /// schedule give a retransmit a fresh fate.
    std::unordered_map<std::uint64_t, std::uint32_t> attempts;
    /// Ack messages carry no sequence number; give them a per-source
    /// ordinal so they draw distinct fates.
    std::uint32_t ack_ordinal = 0;
  };

  /// Forward one surviving copy: hold it when delayed, else pass through.
  void dispatch(ProcId src, rt::Message&& m, std::uint64_t extra_delay_ns,
                SrcState& st);

  rt::Machine& machine_;
  std::unique_ptr<rt::Transport> inner_;
  FaultSchedule sched_;
  std::vector<std::unique_ptr<SrcState>> state_;
  std::atomic<std::uint64_t> held_count_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> dups_{0};
  std::atomic<std::uint64_t> delays_{0};
};

}  // namespace tram::fault
