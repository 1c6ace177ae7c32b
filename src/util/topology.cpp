#include "util/topology.hpp"

#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace tram::util {

Topology::Topology(int nodes, int procs_per_node, int workers_per_proc)
    : nodes_(nodes),
      procs_per_node_(procs_per_node),
      workers_per_proc_(workers_per_proc) {
  if (nodes < 1 || procs_per_node < 1 || workers_per_proc < 1) {
    throw std::invalid_argument(
        "Topology: all dimensions must be >= 1, got " + to_string());
  }
}

std::string Topology::to_string() const {
  std::ostringstream os;
  os << nodes_ << "n x " << procs_per_node_ << "p x " << workers_per_proc_
     << "w";
  return os.str();
}

int available_cpus() noexcept {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
#endif
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

}  // namespace tram::util
