#include "shuffle/shuffle_app.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "shuffle/merge.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace tram::shuffle {

namespace {

std::uint64_t pow2_floor(std::uint64_t v) noexcept {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

std::span<const std::byte> record_bytes(const Record* r, std::size_t n) {
  return std::as_bytes(std::span<const Record>(r, n));
}

// The two constructor checks, run before the app registers its domain and
// hooks on the machine.

std::uint64_t whole_records(const io::MappedFile& input) {
  if (input.size() % sizeof(Record) != 0) {
    throw std::runtime_error(
        "ShuffleApp: input is not a whole number of records");
  }
  return input.size() / sizeof(Record);
}

std::uint64_t slice_bytes_for(std::uint64_t budget, std::uint64_t workers) {
  const std::uint64_t slice = pow2_floor(budget / (workers + 1));
  if (slice < 128) {
    // One slice must hold ≥ 2 records and admit a ≥ 2-way spill merge
    // (max fan-in is slice/64, see merge_worker).
    throw std::runtime_error(
        "ShuffleApp: mem budget below 128 bytes per worker slice");
  }
  return slice;
}

}  // namespace

ShuffleApp::ShuffleApp(rt::Machine& machine, const ShuffleParams& params)
    : machine_(machine),
      params_(params),
      input_(params.input_path),
      partitioner_(static_cast<std::uint32_t>(machine.topology().workers())),
      records_total_(whole_records(input_)),
      slice_bytes_(slice_bytes_for(
          params.mem_budget_bytes,
          static_cast<std::uint64_t>(machine.topology().workers()))),
      slice_records_(static_cast<std::size_t>(slice_bytes_) / sizeof(Record)),
      // The private pool is the budget ledger: max slab class = one slice,
      // so every acquire below is charged its exact power-of-two size.
      pool_(util::PayloadPool::Config{
          .min_slab_bytes = 64,
          .max_slab_bytes = static_cast<std::size_t>(slice_bytes_),
          .max_slabs_per_class = 0}),
      sinks_(static_cast<std::size_t>(machine.topology().workers())),
      domain_(machine, params.tram,
              [this](rt::Worker& w, const Record& r) { deliver(w, r); }) {}

void ShuffleApp::deliver(rt::Worker& w, const Record& r) {
  if (partitioner_.owner(r.key) != w.id()) {
    std::fprintf(stderr,
                 "ShuffleApp: record with key %llu misrouted to worker %d "
                 "(owner is %d)\n",
                 static_cast<unsigned long long>(r.key), w.id(),
                 partitioner_.owner(r.key));
    std::abort();
  }
  auto& s = sinks_[static_cast<std::size_t>(w.id())];
  if (s.buf.empty()) {
    s.buf = pool_.acquire(static_cast<std::size_t>(slice_bytes_));
  }
  auto* recs = reinterpret_cast<Record*>(s.buf.data());
  recs[s.count++] = r;
  ++s.delivered;
  if (s.count == slice_records_) {
    trace::instant(trace::Cat::kShuffle, trace::kSliceFill, s.count,
                   static_cast<std::uint32_t>(w.id()));
    spill(w.id(), s);
  }
}

void ShuffleApp::spill(WorkerId w, Sink& s) {
  const std::uint64_t t0 = trace::maybe_now();
  const std::size_t n = s.count;
  auto* recs = reinterpret_cast<Record*>(s.buf.data());
  std::sort(recs, recs + s.count);
  if (!s.writer) {
    s.writer = std::make_unique<io::SpillWriter>(spill_path(w, 0));
  }
  s.writer->write_run(record_bytes(recs, s.count));
  s.count = 0;
  trace::complete(trace::Cat::kShuffle, trace::kSpill, t0, n,
                  static_cast<std::uint32_t>(w));
}

std::string ShuffleApp::spill_path(WorkerId w, int pass) const {
  std::string p = params_.spill_dir + "/shuffle_w" + std::to_string(w);
  if (pass > 0) p += ".m" + std::to_string(pass);
  return p + ".spill";
}

ShuffleResult ShuffleApp::run(std::uint64_t seed) {
  for (auto& s : sinks_) s = Sink{};  // drop prior buffers before re-arming
  pool_.reset_stats();
  domain_.reset_stats();

  const auto workers = static_cast<std::uint64_t>(machine_.topology().workers());
  const std::uint64_t total = records_total_;
  const auto result = machine_.run(
      [this, total, workers](rt::Worker& w) {
        auto& agg = domain_.on(w);
        const auto id = static_cast<std::uint64_t>(w.id());
        const std::uint64_t begin = total * id / workers;
        const std::uint64_t end = total * (id + 1) / workers;
        io::ChunkReader rd(
            input_.bytes().subspan(begin * sizeof(Record),
                                   (end - begin) * sizeof(Record)),
            sizeof(Record), params_.chunk_bytes);
        std::uint64_t i = 0;
        for (auto chunk = rd.next(); !chunk.empty(); chunk = rd.next()) {
          const auto* recs =
              reinterpret_cast<const Record*>(chunk.data());
          const std::size_t n = chunk.size() / sizeof(Record);
          for (std::size_t j = 0; j < n; ++j) {
            agg.insert(partitioner_.owner(recs[j].key), recs[j]);
            if (params_.progress_interval != 0 &&
                ++i % params_.progress_interval == 0) {
              w.progress();
            }
          }
        }
        agg.flush_all();
      },
      seed);

  ShuffleResult res;
  res.run = result;
  res.tram = domain_.aggregate_stats();
  res.max_reserved_buffers = domain_.max_reserved_buffers();
  res.records_in = total;
  res.budget_bytes = params_.mem_budget_bytes;

  // Quiescence reached: every record sits in a staging tail or a spill
  // run. Merge worker by worker in id order — ranges are contiguous per
  // worker, so the concatenation is the globally sorted stream.
  std::FILE* out = nullptr;
  if (!params_.output_path.empty()) {
    out = std::fopen(params_.output_path.c_str(), "wb");
    if (out == nullptr) {
      throw std::runtime_error("ShuffleApp: cannot create output '" +
                               params_.output_path + "'");
    }
  }
  res.sorted = true;
  Record prev{};
  bool any_out = false;
  Crc64 crc;
  for (WorkerId w = 0; w < static_cast<WorkerId>(workers); ++w) {
    merge_worker(w, out, res, crc, prev, any_out);
  }
  res.output_crc = crc.value();
  if (out != nullptr) std::fclose(out);

  std::uint64_t delivered = 0;
  for (const auto& s : sinks_) delivered += s.delivered;
  res.staging_peak_bytes = pool_.stats().peak_outstanding_bytes;
  res.verified = res.records_out == res.records_in &&
                 delivered == res.records_in &&
                 res.tram.items_delivered == res.records_in && res.sorted &&
                 res.staging_peak_bytes <= res.budget_bytes;
  return res;
}

void ShuffleApp::merge_worker(WorkerId w, std::FILE* out, ShuffleResult& res,
                              Crc64& crc, Record& prev, bool& any_out) {
  const std::uint64_t t0 = trace::maybe_now();
  auto& s = sinks_[static_cast<std::size_t>(w)];
  auto* tail = s.buf.empty() ? nullptr : reinterpret_cast<Record*>(s.buf.data());
  if (tail != nullptr) std::sort(tail, tail + s.count);

  // Cascade over-wide spill sets down to the refill-buffer fan-in limit:
  // k cursors share one slice of budget, each needs a ≥ 64-byte
  // (min slab class) power-of-two buffer, so k ≤ slice/64 per merge.
  const std::size_t max_fanin =
      static_cast<std::size_t>(slice_bytes_) / 64;
  std::vector<io::SpillRun> runs;
  std::string cur_path;
  std::unique_ptr<io::SpillWriter> cascade;  // keeps last pass's index alive
  if (s.writer) {
    s.writer->flush();
    runs = s.writer->runs();
    res.spill_bytes += s.writer->bytes_written();
    res.spill_runs += runs.size();
    cur_path = spill_path(w, 0);
    int pass = 0;
    while (runs.size() > max_fanin) {
      ++pass;
      trace::instant(trace::Cat::kShuffle, trace::kMergePass, runs.size(),
                     static_cast<std::uint32_t>(pass));
      auto next = std::make_unique<io::SpillWriter>(spill_path(w, pass));
      io::SpillReader in(cur_path);
      for (std::size_t base = 0; base < runs.size(); base += max_fanin) {
        const std::size_t k = std::min(max_fanin, runs.size() - base);
        const std::size_t refill = static_cast<std::size_t>(
            pow2_floor(slice_bytes_ / k));
        std::vector<util::PayloadRef> bufs;
        std::vector<SpillRunCursor> cursors;
        bufs.reserve(k);
        cursors.reserve(k);
        for (std::size_t j = 0; j < k; ++j) {
          bufs.push_back(pool_.acquire(refill));
          cursors.emplace_back(in.run(runs[base + j]), bufs.back().span());
        }
        if (k > res.merge_fanin_max) res.merge_fanin_max = k;
        LoserTree<SpillRunCursor> tree(std::move(cursors));
        next->begin_run();
        std::array<Record, 256> batch;
        std::size_t bn = 0;
        for (const Record* r = tree.pop(); r != nullptr; r = tree.pop()) {
          batch[bn++] = *r;
          if (bn == batch.size()) {
            next->append(record_bytes(batch.data(), bn));
            bn = 0;
          }
        }
        if (bn != 0) next->append(record_bytes(batch.data(), bn));
        next->end_run();
      }
      next->flush();
      res.spill_bytes += next->bytes_written();
      if (pass > 1) std::remove(cur_path.c_str());
      runs = next->runs();
      cur_path = spill_path(w, pass);
      cascade = std::move(next);
    }
  }

  // Final merge: surviving spill runs (streamed through refill buffers)
  // plus the in-memory tail, straight into the output + CRC.
  std::vector<util::PayloadRef> bufs;
  std::optional<io::SpillReader> reader;
  const std::size_t k_spill = runs.size();
  const std::size_t k_total = k_spill + (s.count != 0 ? 1 : 0);
  if (k_total > res.merge_fanin_max) res.merge_fanin_max = k_total;

  // Both cursor kinds in one tree via a tiny sum-type cursor.
  struct AnyCursor {
    std::optional<SpillRunCursor> spill;
    std::optional<MemoryRunCursor> mem;
    const Record* current() const noexcept {
      return spill ? spill->current() : mem->current();
    }
    void advance() noexcept {
      if (spill) {
        spill->advance();
      } else {
        mem->advance();
      }
    }
  };
  std::vector<AnyCursor> cursors;
  cursors.reserve(k_total);
  if (k_spill != 0) {
    reader.emplace(cur_path);
    const std::size_t refill =
        static_cast<std::size_t>(pow2_floor(slice_bytes_ / k_spill));
    bufs.reserve(k_spill);
    for (const auto& r : runs) {
      bufs.push_back(pool_.acquire(refill));
      AnyCursor c;
      c.spill.emplace(reader->run(r), bufs.back().span());
      cursors.push_back(std::move(c));
    }
  }
  if (s.count != 0) {
    AnyCursor c;
    c.mem.emplace(std::span<const Record>(tail, s.count));
    cursors.push_back(std::move(c));
  }

  LoserTree<AnyCursor> tree(std::move(cursors));
  std::array<Record, 256> batch;
  std::size_t bn = 0;
  auto flush_batch = [&] {
    const auto bytes = record_bytes(batch.data(), bn);
    crc.update(bytes);
    if (out != nullptr &&
        std::fwrite(bytes.data(), 1, bytes.size(), out) != bytes.size()) {
      throw std::runtime_error("ShuffleApp: short write to output");
    }
    bn = 0;
  };
  for (const Record* r = tree.pop(); r != nullptr; r = tree.pop()) {
    if (any_out && *r < prev) res.sorted = false;
    prev = *r;
    any_out = true;
    ++res.records_out;
    batch[bn++] = *r;
    if (bn == batch.size()) flush_batch();
  }
  if (bn != 0) flush_batch();

  // Release this worker's budget share and clean its spill files.
  s.buf = util::PayloadRef{};
  s.count = 0;
  if (s.writer) {
    std::remove(spill_path(w, 0).c_str());
    s.writer.reset();
  }
  if (!cur_path.empty() && cur_path != spill_path(w, 0)) {
    std::remove(cur_path.c_str());
  }
  trace::complete(trace::Cat::kShuffle, trace::kMergeWorker, t0, k_total,
                  static_cast<std::uint32_t>(w));
}

std::uint64_t write_random_input(const std::string& path,
                                 std::uint64_t records, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("write_random_input: cannot create '" + path +
                             "'");
  }
  std::uint64_t state = seed;
  std::array<Record, 1024> batch;
  std::uint64_t written = 0;
  while (written < records) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(batch.size(), records - written));
    for (std::size_t i = 0; i < n; ++i) {
      // payload = global index keeps every record distinct, so the
      // (key, payload) sort order — and the CRC — is unique.
      batch[i] = Record{util::splitmix64(state), written + i};
    }
    if (std::fwrite(batch.data(), sizeof(Record), n, f) != n) {
      std::fclose(f);
      throw std::runtime_error("write_random_input: short write");
    }
    written += n;
  }
  std::fclose(f);
  return written * sizeof(Record);
}

std::uint64_t reference_sort_crc(const std::string& path) {
  io::MappedFile in(path);
  const auto bytes = in.bytes();
  if (bytes.size() % sizeof(Record) != 0) {
    throw std::runtime_error("reference_sort_crc: not whole records");
  }
  std::vector<Record> all(bytes.size() / sizeof(Record));
  std::memcpy(all.data(), bytes.data(), bytes.size());
  std::sort(all.begin(), all.end());
  Crc64 crc;
  crc.update(record_bytes(all.data(), all.size()));
  return crc.value();
}

}  // namespace tram::shuffle
