/// Microbenchmark of the pooled zero-copy payload path. Two measurements:
///
///  1. raw pool: acquire/fill/release of g-sized slabs from one thread —
///     the per-message buffer-management cost floor;
///  2. end-to-end: a TramDomain insert -> ship -> deliver workload on the
///     modeled fabric, reporting messages/sec, items/sec, and the pool
///     recycle rate observed during the measured (post-warmup) trial.
///
/// The acceptance bar for the zero-copy refactor: steady-state recycle
/// rate >= 95% and zero heap fallbacks — i.e. the hot path performs no
/// per-message heap allocation.

#include <cstdio>

#include "bench_common.hpp"
#include "core/tram.hpp"
#include "runtime/machine.hpp"
#include "util/payload_pool.hpp"
#include "util/timebase.hpp"

using namespace tram;

namespace {

struct PathResult {
  double msgs_per_sec = 0.0;
  double items_per_sec = 0.0;
  util::PayloadPool::Stats pool;
};

PathResult raw_pool_path(const bench::BenchOptions& opt) {
  const std::size_t kSlabBytes = 16 * 1024;  // g=1024 entries of 16B
  const std::uint64_t iters = opt.quick ? 500'000 : 2'000'000;
  auto& pool = util::PayloadPool::global();
  // Warm the size class, then measure pure recycling.
  for (int i = 0; i < 64; ++i) {
    util::PayloadRef r = pool.acquire(kSlabBytes);
    r.data()[0] = std::byte{1};
  }
  pool.reset_stats();
  const std::uint64_t t0 = util::now_ns();
  for (std::uint64_t i = 0; i < iters; ++i) {
    util::PayloadRef r = pool.acquire(kSlabBytes);
    // Touch both ends so the compiler cannot elide the buffer.
    r.data()[0] = static_cast<std::byte>(i);
    r.data()[kSlabBytes - 1] = static_cast<std::byte>(i >> 8);
  }
  const std::uint64_t t1 = util::now_ns();
  PathResult res;
  res.msgs_per_sec =
      static_cast<double>(iters) / (static_cast<double>(t1 - t0) * 1e-9);
  res.items_per_sec = res.msgs_per_sec;
  res.pool = pool.stats();
  return res;
}

PathResult end_to_end_path(const bench::BenchOptions& opt) {
  rt::Machine machine(util::Topology(2, 1, 2), bench::bench_runtime());
  core::TramConfig tcfg;
  tcfg.scheme = core::Scheme::WPs;
  tcfg.buffer_items = 1024;
  std::atomic<std::uint64_t> delivered{0};
  core::TramDomain<std::uint64_t> dom(
      machine, tcfg, [&](rt::Worker&, const std::uint64_t&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
      });
  const int workers = machine.topology().workers();
  const int items = opt.quick ? 50'000 : 200'000;

  auto trial = [&] {
    return machine
        .run([&](rt::Worker& w) {
          auto& h = dom.on(w);
          for (int i = 0; i < items; ++i) {
            h.insert(static_cast<WorkerId>((w.id() + i) % workers),
                     static_cast<std::uint64_t>(i));
          }
          h.flush_all();
        })
        .wall_s;
  };

  (void)trial();  // warmup primes every pool size class the path touches
  core::reset_payload_pool_stats();
  dom.reset_stats();
  const double secs = trial();

  PathResult res;
  const auto stats = dom.aggregate_stats();
  res.items_per_sec = static_cast<double>(stats.items_delivered) / secs;
  res.msgs_per_sec =
      static_cast<double>(stats.msgs_shipped + stats.regroup_msgs) / secs;
  res.pool = core::payload_pool_stats();
  return res;
}

void add_path_row(util::Table& table, const char* name,
                  const PathResult& r) {
  table.add_row(
      {name, util::Table::fmt(r.msgs_per_sec / 1e6, 3),
       util::Table::fmt(r.items_per_sec / 1e6, 3),
       util::Table::fmt(100.0 * r.pool.recycle_rate(), 2),
       util::Table::fmt_int(static_cast<long long>(r.pool.heap_fallbacks)),
       util::Table::fmt_int(static_cast<long long>(r.pool.slab_allocs))});
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opt;
  if (!opt.parse(argc, argv,
                 "micro_payload_pool: pooled zero-copy payload path "
                 "(messages/sec and buffer recycle rate)"))
    return 2;

  const PathResult raw = raw_pool_path(opt);
  const PathResult e2e = end_to_end_path(opt);

  util::Table table("Payload pool: allocation-free message path");
  table.set_header({"path", "Mmsgs/s", "Mitems/s", "recycle %",
                    "heap fallbacks", "slab allocs"});
  add_path_row(table, "raw acquire/release", raw);
  add_path_row(table, "tram insert->deliver", e2e);
  bench::emit(table, opt);

  bench::ShapeChecker shapes;
  shapes.expect(raw.pool.recycle_rate() >= 0.99,
                "raw pool path recycles >= 99% of buffers");
  shapes.expect(e2e.pool.recycle_rate() >= 0.95,
                "steady-state tram path recycles >= 95% of buffers");
  shapes.expect(raw.pool.heap_fallbacks == 0 && e2e.pool.heap_fallbacks == 0,
                "no heap fallbacks on the hot path");
  shapes.report();
  return 0;
}
