#include "apps/histogram.hpp"

namespace tram::apps {

HistogramApp::HistogramApp(rt::Machine& machine,
                           const HistogramParams& params)
    : machine_(machine),
      params_(params),
      part_(params.bins_per_worker *
                static_cast<std::uint64_t>(machine.topology().workers()),
            machine.topology().workers()),
      domain_(machine, params.tram,
              [this](rt::Worker& w, const std::uint64_t& bin) {
                auto& slice = tables_[static_cast<std::size_t>(w.id())];
                slice[bin - part_.begin(w.id())]++;
              }) {
  tables_.resize(static_cast<std::size_t>(machine.topology().workers()));
  for (int w = 0; w < machine.topology().workers(); ++w) {
    tables_[static_cast<std::size_t>(w)].assign(part_.size(w), 0);
  }
}

HistogramResult HistogramApp::run(std::uint64_t seed) {
  for (auto& t : tables_) std::fill(t.begin(), t.end(), 0);
  domain_.reset_stats();

  const std::uint64_t total_bins = part_.total();
  const auto result = machine_.run(
      [this, total_bins](rt::Worker& w) {
        auto agg = domain_.on(w);
        for (std::uint64_t i = 0; i < params_.updates_per_worker; ++i) {
          const std::uint64_t bin = w.rng().below(total_bins);
          agg.insert(static_cast<WorkerId>(part_.owner(bin)), bin);
          if (params_.progress_interval != 0 &&
              i % params_.progress_interval == 0) {
            w.progress();
          }
        }
        // "Each PE invokes the flush call at the end of all updates."
        agg.flush_all();
      },
      seed);

  HistogramResult res;
  res.run = result;
  res.tram = domain_.aggregate_stats();
  res.max_reserved_buffers = domain_.max_reserved_buffers();
  res.allocated_buffer_bytes = domain_.allocated_buffer_bytes();
  for (const auto& t : tables_) {
    for (const std::uint64_t c : t) res.table_total += c;
  }
  const std::uint64_t expected =
      params_.updates_per_worker *
      static_cast<std::uint64_t>(machine_.topology().workers());
  res.verified = res.table_total == expected &&
                 res.tram.items_delivered == expected;
  return res;
}

}  // namespace tram::apps
