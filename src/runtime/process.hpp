#pragma once
///
/// \file process.hpp
/// \brief A simulated OS process: workers + comm thread + shared memory.
///
/// Each Process owns its worker PEs, the per-worker egress rings toward the
/// comm thread, and a SharedStore: the process-local shared-memory registry
/// through which the PP aggregation scheme publishes its cross-worker
/// buffers. By convention nothing outside net/rt touches another process's
/// memory — the simulation enforces the paper's process isolation at review
/// time, while PP's sharing stays within one process, exactly what SMP mode
/// permits.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/message.hpp"
#include "util/parker.hpp"
#include "util/spsc_ring.hpp"
#include "util/types.hpp"

namespace tram::rt {

class Machine;
class Worker;

/// Keyed registry of process-shared objects. get_or_create is thread-safe;
/// all workers of a process calling with the same key receive the same
/// object (first caller constructs).
class SharedStore {
 public:
  template <typename T, typename Factory>
  std::shared_ptr<T> get_or_create(const std::string& key, Factory&& make) {
    std::lock_guard<std::mutex> g(mu_);
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      auto obj = std::shared_ptr<T>(make());
      objects_.emplace(key, obj);
      return obj;
    }
    return std::static_pointer_cast<T>(it->second);
  }

  void clear() {
    std::lock_guard<std::mutex> g(mu_);
    objects_.clear();
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<void>> objects_;
};

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

  SharedStore& shared() noexcept { return shared_; }

 private:
  friend class Machine;

  Machine& machine_;
  const ProcId id_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<util::SpscRing<Message>>> egress_;
  std::atomic<std::uint32_t> rr_{0};
  /// Its own cache line: every worker's egress push writes it.
  alignas(64) util::Parker comm_parker_;
  SharedStore shared_;
};

}  // namespace tram::rt
