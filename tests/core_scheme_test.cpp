#include <gtest/gtest.h>

#include <array>

#include "core/scheme.hpp"
#include "core/tram_stats.hpp"

namespace {

using namespace tram::core;

TEST(Scheme, ParseRoundTrips) {
  for (const Scheme s : all_schemes()) {
    const auto parsed = parse_scheme(to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  for (const Scheme s : routed_schemes()) {
    const auto parsed = parse_scheme(to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_EQ(parse_scheme("wps"), Scheme::WPs);
  EXPECT_EQ(parse_scheme("pp"), Scheme::PP);
  EXPECT_FALSE(parse_scheme("bogus").has_value());
  EXPECT_FALSE(parse_scheme("").has_value());
}

TEST(Scheme, ParseIsCaseInsensitive) {
  EXPECT_EQ(parse_scheme("WPS"), Scheme::WPs);
  EXPECT_EQ(parse_scheme("Wps"), Scheme::WPs);
  EXPECT_EQ(parse_scheme("wSp"), Scheme::WsP);
  EXPECT_EQ(parse_scheme("NONE"), Scheme::None);
  EXPECT_EQ(parse_scheme("mesh2d"), Scheme::Mesh2D);
  EXPECT_EQ(parse_scheme("MESH2D"), Scheme::Mesh2D);
  EXPECT_EQ(parse_scheme("Mesh3D"), Scheme::Mesh3D);
}

TEST(Scheme, Predicates) {
  EXPECT_FALSE(process_addressed(Scheme::None));
  EXPECT_FALSE(process_addressed(Scheme::WW));
  EXPECT_TRUE(process_addressed(Scheme::WPs));
  EXPECT_TRUE(process_addressed(Scheme::WsP));
  EXPECT_TRUE(process_addressed(Scheme::PP));
  EXPECT_TRUE(shares_source_buffers(Scheme::PP));
  EXPECT_FALSE(shares_source_buffers(Scheme::WPs));
  EXPECT_FALSE(is_routed(Scheme::WPs));
  EXPECT_TRUE(is_routed(Scheme::Mesh2D));
  EXPECT_TRUE(is_routed(Scheme::Mesh3D));
  EXPECT_EQ(mesh_ndims(Scheme::Mesh2D), 2);
  EXPECT_EQ(mesh_ndims(Scheme::Mesh3D), 3);
  EXPECT_EQ(mesh_ndims(Scheme::WW), 0);
}

TEST(Scheme, ListsAreConsistent) {
  EXPECT_EQ(all_schemes().size(), 5u);
  EXPECT_EQ(aggregating_schemes().size(), 4u);
  for (const Scheme s : aggregating_schemes()) {
    EXPECT_NE(s, Scheme::None);
  }
  EXPECT_EQ(routed_schemes().size(), 2u);
  for (const Scheme s : routed_schemes()) {
    EXPECT_TRUE(is_routed(s));
  }
}

/// Section III-C memory formulas, checked against hand-computed values for
/// N=4 processes, t=8 workers/proc, g=1024 items, m=24 bytes.
TEST(Formulas, BufferMemoryPerCore) {
  const std::uint64_t g = 1024, m = 24, N = 4, t = 8;
  EXPECT_EQ(buffer_bytes_per_core(Scheme::WW, g, m, N, t), g * m * N * t);
  EXPECT_EQ(buffer_bytes_per_core(Scheme::WPs, g, m, N, t), g * m * N);
  EXPECT_EQ(buffer_bytes_per_core(Scheme::WsP, g, m, N, t), g * m * N);
  EXPECT_EQ(buffer_bytes_per_core(Scheme::PP, g, m, N, t), 0u);
  EXPECT_EQ(buffer_bytes_per_core(Scheme::None, g, m, N, t), 0u);
}

TEST(Formulas, BufferMemoryPerProcess) {
  const std::uint64_t g = 1024, m = 24, N = 4, t = 8;
  EXPECT_EQ(buffer_bytes_per_process(Scheme::WW, g, m, N, t),
            g * m * N * t * t);
  EXPECT_EQ(buffer_bytes_per_process(Scheme::WPs, g, m, N, t), g * m * N * t);
  EXPECT_EQ(buffer_bytes_per_process(Scheme::PP, g, m, N, t), g * m * N);
}

TEST(Formulas, MemoryOrderingAcrossSchemes) {
  // The paper's motivation: per-process footprint PP < WPs/WsP < WW for
  // any t > 1.
  const std::uint64_t g = 512, m = 16, N = 16, t = 8;
  const auto ww = buffer_bytes_per_process(Scheme::WW, g, m, N, t);
  const auto wps = buffer_bytes_per_process(Scheme::WPs, g, m, N, t);
  const auto pp = buffer_bytes_per_process(Scheme::PP, g, m, N, t);
  EXPECT_GT(ww, wps);
  EXPECT_GT(wps, pp);
  EXPECT_EQ(ww / wps, t);
  EXPECT_EQ(wps / pp, t);
}

TEST(Formulas, MessageBounds) {
  const std::uint64_t z = 100'000, g = 1024, N = 8, t = 4;
  const auto ww = messages_per_source(Scheme::WW, z, g, N, t);
  EXPECT_EQ(ww.lower, z / g);
  EXPECT_EQ(ww.upper, z / g + N * t);
  const auto wps = messages_per_source(Scheme::WPs, z, g, N, t);
  EXPECT_EQ(wps.upper, z / g + N);
  const auto wsp = messages_per_source(Scheme::WsP, z, g, N, t);
  EXPECT_EQ(wsp.upper, wps.upper);
  const auto pp = messages_per_source(Scheme::PP, z * t, g, N, t);
  EXPECT_EQ(pp.lower, z * t / g);
  EXPECT_EQ(pp.upper, z * t / g + N);
  const auto none = messages_per_source(Scheme::None, z, g, N, t);
  EXPECT_EQ(none.lower, z);
  EXPECT_EQ(none.upper, z);
}

TEST(Formulas, LongStreamBoundsConverge) {
  // For z >> g the flush term vanishes relative to z/g: all aggregating
  // schemes send essentially the same message count (paper section III-C).
  const std::uint64_t z = 1'000'000'000, g = 1024, N = 8, t = 4;
  const auto ww = messages_per_source(Scheme::WW, z, g, N, t);
  const auto wps = messages_per_source(Scheme::WPs, z, g, N, t);
  const double spread =
      static_cast<double>(ww.upper - wps.upper) /
      static_cast<double>(ww.lower);
  EXPECT_LT(spread, 1e-4);
}

TEST(Formulas, RoutedBuffersPerCore) {
  // O(d * N^(1/d)): 64 processes as 8x8 -> 15 buffers, 4x4x4 -> 10,
  // against the direct schemes' 64.
  const std::array<int, 2> dims2{8, 8};
  EXPECT_EQ(routed_buffers_per_core(dims2), 15u);
  EXPECT_EQ(routed_buffer_bytes_per_core(1024, 24, dims2),
            1024u * 24u * 15u);
  const std::array<int, 3> dims3{4, 4, 4};
  EXPECT_EQ(routed_buffers_per_core(dims3), 10u);
  // Extents of 1 contribute nothing (that dimension never mismatches).
  const std::array<int, 3> degenerate{1, 1, 7};
  EXPECT_EQ(routed_buffers_per_core(degenerate), 7u);
}

TEST(Formulas, RoutedMessageBounds) {
  // 64 processes, 2-D: up to d ships per item, flush term d * side.
  const auto mesh2d =
      messages_per_source(Scheme::Mesh2D, 100'000, 1'000, 64, 1);
  EXPECT_EQ(mesh2d.lower, 100u);
  EXPECT_EQ(mesh2d.upper, 2u * (100u + 8u));
  const auto mesh3d =
      messages_per_source(Scheme::Mesh3D, 100'000, 1'000, 64, 1);
  EXPECT_EQ(mesh3d.upper, 3u * (100u + 4u));
  // The routed flush term beats the direct one once N outgrows d*N^(1/d).
  const auto direct = messages_per_source(Scheme::WPs, 0, 1'000, 64, 1);
  EXPECT_LT(mesh2d.upper - 2u * mesh2d.lower, direct.upper);
}

TEST(WorkerTramStats, MergeAccumulates) {
  tram::core::WorkerTramStats a, b;
  a.items_inserted = 10;
  a.msgs_shipped = 2;
  b.items_inserted = 5;
  b.flush_msgs = 1;
  a.merge(b);
  EXPECT_EQ(a.items_inserted, 15u);
  EXPECT_EQ(a.msgs_shipped, 2u);
  EXPECT_EQ(a.flush_msgs, 1u);
}

}  // namespace
