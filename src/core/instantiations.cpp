/// Explicit instantiations of the TramDomain template for common item
/// types: catches template compile errors at library build time and speeds
/// up dependent TUs.
#include <cstdint>

#include "core/tram.hpp"

namespace tram::core {

template class TramDomain<std::uint32_t>;
template class TramDomain<std::uint64_t>;

}  // namespace tram::core
