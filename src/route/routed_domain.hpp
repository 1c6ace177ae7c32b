#pragma once
///
/// \file routed_domain.hpp
/// \brief route::RoutedDomain: an alias of core::TramDomain, which serves
/// every scheme, the routed meshes included. The repository benchmark
/// (bench/e2e) names it.

#include "core/tram.hpp"

namespace tram::route {

template <class I>
using RoutedDomain = core::TramDomain<I>;

}  // namespace tram::route
