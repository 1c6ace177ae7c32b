#include "runtime/process.hpp"

#include "runtime/machine.hpp"
#include "runtime/worker.hpp"

namespace tram::rt {

Process::Process(Machine& machine, ProcId id) : machine_(machine), id_(id) {
  const auto& topo = machine.topology();
  const int w = topo.workers_per_proc();
  workers_.reserve(static_cast<std::size_t>(w));
  egress_.reserve(static_cast<std::size_t>(w));
  for (LocalWorkerId r = 0; r < w; ++r) {
    workers_.push_back(std::make_unique<Worker>(
        machine, *this, topo.worker_at(id, r), r));
    egress_.push_back(std::make_unique<util::SpscRing<Message>>(
        machine.config().egress_ring_capacity));
  }
}

Process::~Process() = default;

WorkerId Process::pick_delivery_worker() {
  const std::uint32_t r = rr_.fetch_add(1, std::memory_order_relaxed);
  const int w = worker_count();
  return machine_.topology().worker_at(
      id_, static_cast<LocalWorkerId>(r % static_cast<std::uint32_t>(w)));
}

}  // namespace tram::rt
