#pragma once
///
/// \file process.hpp
/// \brief A simulated OS process: workers + comm thread.
///
/// Each Process owns its worker PEs and the per-worker egress rings toward
/// the comm thread. By convention nothing outside net/rt touches another
/// process's memory — the simulation enforces the paper's process isolation
/// at review time, while PP's sharing stays within one process, exactly what
/// SMP mode permits.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/message.hpp"
#include "util/parker.hpp"
#include "util/spsc_ring.hpp"
#include "util/types.hpp"

namespace tram::rt {

class Machine;
class Worker;

class Process {
 public:
  Process(Machine& machine, ProcId id);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcId id() const noexcept { return id_; }
  NodeId node() const noexcept;
  Machine& machine() noexcept { return machine_; }

  int worker_count() const noexcept { return static_cast<int>(workers_.size()); }
  Worker& worker(LocalWorkerId r) { return *workers_[static_cast<std::size_t>(r)]; }

  /// Worker r's egress ring toward the comm thread (SPSC: worker produces,
  /// comm thread consumes).
  util::SpscRing<Message>& egress(LocalWorkerId r) {
    return *egress_[static_cast<std::size_t>(r)];
  }

  /// Where this process's comm thread sleeps when idle (SMP mode). Worker
  /// egress pushes and Machine::wake_comm unpark it.
  util::Parker& comm_parker() noexcept { return comm_parker_; }

  /// Round-robin choice of a local worker for process-addressed messages.
  WorkerId pick_delivery_worker();

 private:
  friend class Machine;

  Machine& machine_;
  const ProcId id_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<util::SpscRing<Message>>> egress_;
  std::atomic<std::uint32_t> rr_{0};
  /// Its own cache line: every worker's egress push writes it.
  alignas(64) util::Parker comm_parker_;
};

}  // namespace tram::rt
