#include "core/virtual_mesh.hpp"

#include <stdexcept>

namespace tram::core {

VirtualMesh::VirtualMesh(int procs, std::span<const int> dims)
    : procs_(procs), ndims_(static_cast<int>(dims.size())) {
  if (procs < 1) throw std::invalid_argument("VirtualMesh: procs < 1");
  if (ndims_ < 1 || ndims_ > kMaxDims) {
    throw std::invalid_argument("VirtualMesh: need 1..3 dimensions");
  }
  long long product = 1;
  for (int k = 0; k < ndims_; ++k) {
    const int d = dims[static_cast<std::size_t>(k)];
    if (d < 1) throw std::invalid_argument("VirtualMesh: extent < 1");
    dims_[static_cast<std::size_t>(k)] = d;
    product *= d;
  }
  if (product != procs) {
    throw std::invalid_argument(
        "VirtualMesh: extents " + to_string() + " do not factor " +
        std::to_string(procs) + " processes");
  }
  int stride = 1;
  for (int k = 0; k < ndims_; ++k) {
    strides_[static_cast<std::size_t>(k)] = stride;
    stride *= dims_[static_cast<std::size_t>(k)];
  }
}

VirtualMesh VirtualMesh::auto_factor(int procs, int ndims) {
  if (procs < 1) throw std::invalid_argument("VirtualMesh: procs < 1");
  if (ndims < 1 || ndims > kMaxDims) {
    throw std::invalid_argument("VirtualMesh: need 1..3 dimensions");
  }
  // Peel off the largest divisor <= procs^(1/remaining) each round; the
  // leftover (largest) factor lands in the last dimension. Balanced when
  // procs is a d-th power; degrades gracefully (prime N -> 1 x ... x N).
  std::array<int, kMaxDims> dims{1, 1, 1};
  int rest = procs;
  for (int k = 0; k < ndims - 1; ++k) {
    const int remaining = ndims - k;
    int target = 1;
    while (true) {
      long long power = 1;
      for (int i = 0; i < remaining; ++i) power *= target + 1;
      if (power > rest) break;
      ++target;
    }
    int factor = 1;
    for (int d = target; d >= 1; --d) {
      if (rest % d == 0) {
        factor = d;
        break;
      }
    }
    dims[static_cast<std::size_t>(k)] = factor;
    rest /= factor;
  }
  dims[static_cast<std::size_t>(ndims - 1)] = rest;
  return VirtualMesh(procs,
                     std::span<const int>(dims.data(),
                                          static_cast<std::size_t>(ndims)));
}

std::string VirtualMesh::to_string() const {
  std::string s;
  for (int k = 0; k < ndims_; ++k) {
    if (k > 0) s += 'x';
    s += std::to_string(dims_[static_cast<std::size_t>(k)]);
  }
  return s;
}

}  // namespace tram::core
