#pragma once
///
/// \file stats.hpp
/// \brief Quartiles and a fine-grained latency histogram for tram_e2e.
///
/// util::LatencyHistogram keeps two buckets per octave (~41% error): fine
/// for the figure benches' orderings, far too coarse to resolve the 10%
/// regression bounds this benchmark gates on — a p50 read from it would
/// jump between a handful of bucket midpoints. FineHist keeps 128 linear
/// sub-buckets per octave (<0.8% error) in constant memory, so the busiest
/// workload can record every request without growing the RSS it reports.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace tram::e2e {

/// Median and quartiles computed exactly as Python's
/// statistics.quantiles(data, n=4) (the default 'exclusive' method), so
/// the spreads printed here match what compare.py and the driver compute.
struct Quartiles {
  double q1 = NAN;
  double median = NAN;
  double q3 = NAN;
  std::size_t n = 0;
};

inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double cut[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
                 4.0;
  }
  q.q1 = cut[0];
  q.median = cut[1];
  q.q3 = cut[2];
  return q;
}

/// Log-linear histogram of nanosecond samples: values below 256 are exact,
/// larger ones fall in one of 128 equal sub-buckets of their octave.
class FineHist {
 public:
  void add(std::uint64_t ns) noexcept {
    counts_[index(ns)]++;
    ++count_;
    if (ns > max_) max_ = ns;
  }

  void merge(const FineHist& o) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    count_ += o.count_;
    if (o.max_ > max_) max_ = o.max_;
  }

  void clear() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = max_ = 0;
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t max() const noexcept { return max_; }

  /// The q-quantile (0 <= q <= 1), interpolated linearly inside the bucket
  /// holding that rank. NaN when empty.
  double percentile(double q) const noexcept {
    if (count_ == 0) return NAN;
    const double rank = q * static_cast<double>(count_ - 1);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = counts_[b];
      if (c == 0) continue;
      if (static_cast<double>(seen + c) > rank) {
        const double pos = (rank - static_cast<double>(seen) + 0.5) /
                           static_cast<double>(c);
        return static_cast<double>(lower(b)) +
               pos * static_cast<double>(width(b));
      }
      seen += c;
    }
    return static_cast<double>(max_);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - (kSubBits + 1);
    return static_cast<std::size_t>((static_cast<std::uint64_t>(e) + 1) *
                                        kSub +
                                    (v >> e) - kSub);
  }
  static std::uint64_t lower(std::size_t b) noexcept {
    if (b < 2 * kSub) return b;
    const std::uint64_t e = b / kSub - 1;
    return ((b % kSub) + kSub) << e;
  }
  static std::uint64_t width(std::size_t b) noexcept {
    return b < 2 * kSub ? 1 : std::uint64_t{1} << (b / kSub - 1);
  }

  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets);
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace tram::e2e
