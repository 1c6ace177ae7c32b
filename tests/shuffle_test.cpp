/// End-to-end proof for the out-of-core shuffle (src/shuffle/): for an
/// input 8x the memory budget, the merged output's CRC64 equals an
/// in-memory reference sort, the staging pool's high-water stays within
/// the budget, delivery is exactly-once, and the result is bit-identical
/// across {WsP, Mesh2D, Mesh3D}, across repeated runs, under 5% drop +
/// 3% dup fault injection, and through the cascaded (multi-pass) merge a
/// tighter budget forces.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "io/mapped_file.hpp"
#include "runtime/machine.hpp"
#include "shuffle/merge.hpp"
#include "shuffle/partitioner.hpp"
#include "shuffle/shuffle_app.hpp"

namespace {

using namespace tram;

constexpr std::uint64_t kBudget = 32 << 10;             // 32 KiB
constexpr std::uint64_t kRecords = 16384;               // 256 KiB = 8x budget
constexpr std::uint64_t kInputBytes = kRecords * sizeof(shuffle::Record);
static_assert(kInputBytes >= 8 * kBudget);

const std::vector<core::Scheme> kSchemes = {
    core::Scheme::WsP, core::Scheme::Mesh2D, core::Scheme::Mesh3D};

rt::RuntimeConfig shuffle_runtime(const fault::FaultConfig& f = {}) {
  rt::RuntimeConfig cfg = rt::RuntimeConfig::testing();
  cfg.dedicated_comm = false;
  cfg.fault = f;
  return cfg;
}

/// Shared input + reference CRC, generated once for the whole suite.
class ShuffleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    input_path_ = new std::string(testing::TempDir() + "shuffle_input.bin");
    shuffle::write_random_input(*input_path_, kRecords, /*seed=*/1234);
    reference_crc_ = shuffle::reference_sort_crc(*input_path_);
  }
  static void TearDownTestSuite() {
    std::remove(input_path_->c_str());
    delete input_path_;
    input_path_ = nullptr;
  }

  static shuffle::ShuffleParams params(core::Scheme scheme,
                                       std::uint64_t budget = kBudget) {
    shuffle::ShuffleParams p;
    p.input_path = *input_path_;
    p.spill_dir = testing::TempDir();
    p.mem_budget_bytes = budget;
    p.chunk_bytes = 8 << 10;  // several chunks per source
    p.tram.scheme = scheme;
    p.tram.buffer_items = 64;
    return p;
  }

  static void expect_exact(const shuffle::ShuffleResult& res,
                           const std::string& what) {
    EXPECT_TRUE(res.verified) << what;
    EXPECT_EQ(res.records_in, kRecords) << what;
    EXPECT_EQ(res.records_out, kRecords) << what;
    EXPECT_TRUE(res.sorted) << what;
    EXPECT_EQ(res.output_crc, reference_crc_) << what;
    EXPECT_EQ(res.tram.items_delivered, kRecords) << what;
    EXPECT_EQ(res.tram.items_inserted, kRecords) << what;
    EXPECT_LE(res.staging_peak_bytes, res.budget_bytes) << what;
    // 8x the budget cannot fit in staging: spilling must have happened.
    EXPECT_GT(res.spill_bytes, 0u) << what;
    EXPECT_GT(res.spill_runs, 0u) << what;
  }

  static std::string* input_path_;
  static std::uint64_t reference_crc_;
};

std::string* ShuffleTest::input_path_ = nullptr;
std::uint64_t ShuffleTest::reference_crc_ = 0;

TEST_F(ShuffleTest, BitIdenticalAcrossSchemes) {
  const util::Topology topo(8, 1, 1);
  for (const auto scheme : kSchemes) {
    rt::Machine machine(topo, shuffle_runtime());
    shuffle::ShuffleApp app(machine, params(scheme));
    const auto res = app.run();
    expect_exact(res, core::to_string(scheme));
  }
}

TEST_F(ShuffleTest, RepeatedRunsAreBitIdentical) {
  const util::Topology topo(8, 1, 1);
  rt::Machine machine(topo, shuffle_runtime());
  shuffle::ShuffleApp app(machine, params(core::Scheme::Mesh2D));
  const auto first = app.run();
  const auto second = app.run();
  expect_exact(first, "first run");
  expect_exact(second, "second run");
  EXPECT_EQ(first.output_crc, second.output_crc);
  EXPECT_EQ(first.spill_runs, second.spill_runs);
  EXPECT_EQ(first.records_out, second.records_out);
}

TEST_F(ShuffleTest, SortedOutputFileOnDisk) {
  const util::Topology topo(8, 1, 1);
  rt::Machine machine(topo, shuffle_runtime());
  auto p = params(core::Scheme::Mesh3D);
  p.output_path = testing::TempDir() + "shuffle_sorted_out.bin";
  shuffle::ShuffleApp app(machine, p);
  const auto res = app.run();
  expect_exact(res, "Mesh3D with output file");

  // Independently re-scan the bytes on disk: whole records, globally
  // non-decreasing, CRC matching what the app reported.
  io::MappedFile out(p.output_path);
  ASSERT_EQ(out.size(), kInputBytes);
  shuffle::Crc64 crc;
  crc.update(out.bytes());
  EXPECT_EQ(crc.value(), reference_crc_);
  const auto* recs =
      reinterpret_cast<const shuffle::Record*>(out.bytes().data());
  for (std::uint64_t i = 1; i < kRecords; ++i) {
    ASSERT_FALSE(recs[i] < recs[i - 1]) << "output unsorted at " << i;
  }
  std::remove(p.output_path.c_str());
}

TEST_F(ShuffleTest, FaultInjectionDoesNotMoveTheCrc) {
  // Satellite case: 5% drop + 3% dup under sustained streaming load. The
  // reliability layer must keep the output bit-identical to fault-free.
  fault::FaultConfig f;
  f.drop_rate = 0.05;
  f.dup_rate = 0.03;
  f.seed = 77;
  const util::Topology topo(8, 1, 1);
  for (const auto scheme : {core::Scheme::WsP, core::Scheme::Mesh2D}) {
    const std::string what =
        std::string("faulty/") + core::to_string(scheme);
    rt::Machine machine(topo, shuffle_runtime(f));
    shuffle::ShuffleApp app(machine, params(scheme));
    const auto res = app.run();
    expect_exact(res, what);
    // The run must actually have been lossy — and recovered.
    const auto fs = machine.fault_stats();
    EXPECT_GE(fs.faults_injected_drop, 1u) << what;
    EXPECT_GE(fs.faults_injected_dup, 1u) << what;
    EXPECT_GE(fs.retransmits, 1u) << what;
    EXPECT_GE(fs.dup_drops, 1u) << what;
  }
}

TEST_F(ShuffleTest, TightBudgetForcesCascadedMergeAndStillVerifies) {
  // 16 KiB budget, 8 workers: slice = 1 KiB, spill fan-in cap 16, but
  // each worker accumulates ~32 runs — the cascade (multi-pass merge)
  // must engage and the result must not change.
  const util::Topology topo(8, 1, 1);
  rt::Machine machine(topo, shuffle_runtime());
  shuffle::ShuffleApp app(machine, params(core::Scheme::Mesh2D, 16 << 10));
  EXPECT_EQ(app.slice_bytes(), 1u << 10);
  const auto res = app.run();
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.output_crc, reference_crc_);
  EXPECT_LE(res.staging_peak_bytes, res.budget_bytes);
  // Cascade evidence: total spill bytes exceed the input (intermediate
  // merged runs are re-spilled) and no merge exceeded the fan-in cap + 1
  // (the in-memory tail rides the final merge).
  EXPECT_GT(res.spill_bytes, kInputBytes);
  EXPECT_LE(res.merge_fanin_max, app.slice_bytes() / 64 + 1);
}

TEST_F(ShuffleTest, BudgetBelowFloorThrows) {
  const util::Topology topo(8, 1, 1);
  rt::Machine machine(topo, shuffle_runtime());
  auto p = params(core::Scheme::WsP);
  p.mem_budget_bytes = 256;  // slice would be < 128 bytes for 8 workers
  EXPECT_THROW(shuffle::ShuffleApp(machine, p), std::runtime_error);
}

// ---- unit coverage for the pieces under the app ----

TEST(Partitioner, RangesAreContiguousOrderedAndComplete) {
  shuffle::Partitioner part(8);
  EXPECT_EQ(part.owner(0), 0);
  EXPECT_EQ(part.owner(~0ull), 7);
  // Owners are non-decreasing in the key: range partitioning, so sorted
  // per-owner outputs concatenate to a globally sorted stream.
  std::uint64_t state = 5;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = util::splitmix64(state);
    const std::uint64_t b = util::splitmix64(state);
    const auto lo = a < b ? a : b, hi = a < b ? b : a;
    EXPECT_LE(part.owner(lo), part.owner(hi));
    EXPECT_LT(part.owner(a), 8);
  }
}

TEST(LoserTree, MergesManyRunsWithTieBreakStability) {
  // 7 sorted runs with heavy key duplication; the merged order must be
  // the exact multiset sort by (key, payload).
  std::vector<std::vector<shuffle::Record>> runs(7);
  std::vector<shuffle::Record> all;
  std::uint64_t state = 99;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (int i = 0; i < 200; ++i) {
      const shuffle::Record rec{util::splitmix64(state) % 64,
                                util::splitmix64(state)};
      runs[r].push_back(rec);
      all.push_back(rec);
    }
    std::sort(runs[r].begin(), runs[r].end());
  }
  std::sort(all.begin(), all.end());

  std::vector<shuffle::MemoryRunCursor> cursors;
  for (const auto& r : runs) cursors.emplace_back(std::span(r));
  shuffle::LoserTree<shuffle::MemoryRunCursor> tree(std::move(cursors));
  std::size_t i = 0;
  for (const auto* rec = tree.pop(); rec != nullptr; rec = tree.pop()) {
    ASSERT_LT(i, all.size());
    EXPECT_EQ(*rec, all[i]) << "at " << i;
    ++i;
  }
  EXPECT_EQ(i, all.size());
}

TEST(LoserTree, DegenerateShapes) {
  {
    shuffle::LoserTree<shuffle::MemoryRunCursor> empty({});
    EXPECT_EQ(empty.pop(), nullptr);
  }
  {
    const std::vector<shuffle::Record> one = {{3, 1}, {5, 2}};
    std::vector<shuffle::MemoryRunCursor> c;
    c.emplace_back(std::span(one));
    shuffle::LoserTree<shuffle::MemoryRunCursor> tree(std::move(c));
    EXPECT_EQ(tree.pop()->key, 3u);
    EXPECT_EQ(tree.pop()->key, 5u);
    EXPECT_EQ(tree.pop(), nullptr);
    EXPECT_EQ(tree.pop(), nullptr);  // stays exhausted
  }
}

TEST(Crc64, KnownVectorAndStreamingEquivalence) {
  // ECMA-182 reflected CRC64 ("CRC-64/XZ") of "123456789".
  const char* digits = "123456789";
  shuffle::Crc64 whole;
  whole.update(std::as_bytes(std::span(digits, 9)));
  EXPECT_EQ(whole.value(), 0x995dc9bbdf1939faull);

  shuffle::Crc64 split;
  split.update(std::as_bytes(std::span(digits, 4)));
  split.update(std::as_bytes(std::span(digits + 4, 5)));
  EXPECT_EQ(split.value(), whole.value());
}

}  // namespace
